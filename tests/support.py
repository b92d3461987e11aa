"""Test-only references: the finite-difference harness and the dense oracles.

Each dense reference forms the n x n matrices of the estimator and solves
with them in np.longdouble, through one centered, ridged Gauss-Jordan solve.
None of them calls ``condadapt.kernels``, ``condadapt.gradients`` or
``condadapt.measures``, so they share no code with the routes they check.
Callers pass Gram matrices as plain arrays (a ``GramMatrix``'s ``entries``).
"""

from dataclasses import dataclass

import numpy as np

from condadapt.errors import InputError


def params_equal(a, b) -> bool:
    """Whether two ``ModelParams`` hold equal arrays."""
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


# finite-difference harness


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    probes: int
    step: float


def finite_diff_check(objective, xre, analytic_grad, *, probes: int = 50,
                      step: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare an analytic gradient against central differences.

    ``objective`` is a scalar function of the feature matrix.  ``probes``
    coordinates are chosen without replacement by a seeded generator; the
    report's max_rel_error is max |g_num - g_ana| over the probed
    coordinates divided by (max |g_ana| + 1e-12) over the whole matrix.
    """
    if probes <= 0:
        raise InputError("no probes: finite-difference check needs probes >= 1")
    if step <= 0:
        raise InputError(f"step must be positive, got {step!r}")
    xre = np.asarray(xre, dtype=float)
    analytic_grad = np.asarray(analytic_grad, dtype=float)
    if analytic_grad.shape != xre.shape:
        raise InputError(f"gradient shape {analytic_grad.shape} != feature shape {xre.shape}")
    total = xre.size
    k = min(probes, total)
    flat_idx = np.random.default_rng(seed).choice(total, size=k, replace=False)
    denom = float(np.max(np.abs(analytic_grad))) + 1e-12
    worst = 0.0
    for fi in flat_idx:
        i, j = np.unravel_index(fi, xre.shape)
        xp = xre.copy()
        xp[i, j] += step
        fp = float(objective(xp))
        xp[i, j] -= 2.0 * step
        fm = float(objective(xp))
        g_num = (fp - fm) / (2.0 * step)
        worst = max(worst, abs(g_num - analytic_grad[i, j]) / denom)
    return GradCheckReport(worst, k, float(step))


# the one dense normalization


def centered(k):
    """H K H with H = I - 11^T / n, in k's dtype; exactly 0 for a constant K."""
    return k - k.mean(axis=0) - k.mean(axis=1)[:, None] + k.mean()


def longdouble_solve(a, rhs):
    """a^{-1} rhs by Gauss-Jordan elimination with partial pivoting, carried
    out in np.longdouble (a 64-bit mantissa on x86-64)."""
    n = a.shape[0]
    m = np.hstack([a, rhs]).astype(np.longdouble)
    for k in range(n):  # columns left of k are already those of the identity
        p = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, p]] = m[[p, k]]
        m[k, k:] /= m[k, k]
        row = m[k, k:].copy()
        m[:, k:] -= np.outer(m[:, k], row)
        m[k, k:] = row
    return m[:, n:]


def ridge_solve(k, rhs, ridge):
    """(H K H + ridge I)^{-1} rhs, in np.longdouble."""
    k = np.asarray(k, dtype=np.longdouble)
    return longdouble_solve(centered(k) + ridge * np.eye(k.shape[0], dtype=np.longdouble),
                            rhs)


def dense_residual(k, epsilon):
    """I - R = n eps (H K H + n eps I)^{-1}, R the normalized centered Gram."""
    n = k.shape[0]
    ridge = n * np.longdouble(epsilon)
    return ridge * ridge_solve(k, np.eye(n, dtype=np.longdouble), ridge)


def dense_normalized(k, epsilon):
    """R = H K H (H K H + n eps I)^{-1}."""
    return np.eye(k.shape[0], dtype=np.longdouble) - dense_residual(k, epsilon)


# the shuffle table


def shuffle_table(classes, n, permutations, seed):
    """(n, permutations) table whose column i shuffles each index array of
    ``classes`` among itself: the documented stream, drawn one shuffle at a
    time.  The generator is the first child that ``SeedSequence(seed)``
    spawns (spawn key (0,)); classes in list order, and within a class
    column 0 first, each column one ``Generator.shuffle`` of the class's
    indices."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    table = np.tile(np.arange(n)[:, None], (1, permutations))
    for idx in classes:
        for i in range(permutations):
            column = np.array(idx)
            rng.shuffle(column)
            table[idx, i] = column
    return table


def within_class_shuffles(labels, permutations, seed):
    """The shuffle table of ``labels``' classes, in ``np.unique`` order."""
    labels = np.asarray(labels)
    classes = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    return shuffle_table(classes, labels.shape[0], permutations, seed)


# dense statistics and nulls


def dense_cond_statistic(kxt, kzt, ky, epsilon):
    """Dense n x n reference Tr(R_Zt S R_Xt S), with S = I - R_Y formed as
    n eps (H K_Y H + n eps I)^{-1}."""
    s = dense_residual(ky, epsilon)
    return float(np.sum(dense_normalized(kzt, epsilon)
                        * (s @ dense_normalized(kxt, epsilon) @ s)))


def dense_plain_null(kx, kz, epsilon, perms):
    """Dense plain statistic and null: Tr(R_Z R_X) from normalized Grams,
    R_Z conjugated by each shuffle, with whether that shuffle leaves K_Z
    unchanged entry for entry (an exact tie)."""
    rx = dense_normalized(kx, epsilon)
    rz = dense_normalized(kz, epsilon)
    stat = float(np.sum(rz * rx))
    reps = np.array([float(np.sum(rz[np.ix_(p, p)] * rx)) for p in perms])
    ties = np.array([np.array_equal(kz[np.ix_(p, p)], kz) for p in perms], dtype=bool)
    return stat, reps, ties


def dense_cond_null(kxt, kzt, ky, epsilon, perms):
    """Dense conditional statistic and null: Tr(R_Zt S R_Xt S) with R_Zt
    conjugated by each shuffle (which must fix K_Y), with whether that
    shuffle leaves K_Zt unchanged entry for entry (an exact tie)."""
    s = dense_residual(ky, epsilon)
    rzt = dense_normalized(kzt, epsilon)
    srs = s @ dense_normalized(kxt, epsilon) @ s
    stat = float(np.sum(rzt * srs))
    reps = np.array([float(np.sum(rzt[np.ix_(p, p)] * srs)) for p in perms])
    ties = np.array([np.array_equal(kzt[np.ix_(p, p)], kzt) for p in perms], dtype=bool)
    return stat, reps, ties


def dense_per_class_null(kx, kz, labels, epsilon, permutations, seed):
    """Dense per-class statistic and null: replicate i is column i of the
    shuffle table over the kept classes, in ``np.unique`` order; a replicate
    ties when it ties in every class.  None if every class is skipped."""
    kept = [idx for idx in (np.flatnonzero(labels == c) for c in np.unique(labels))
            if idx.shape[0] >= 2 and np.ptp(kz[np.ix_(idx, idx)]) > 1e-15]
    if not kept:
        return None
    table = shuffle_table(kept, labels.shape[0], permutations, seed)
    total = sum(idx.shape[0] for idx in kept)
    stat, reps, ties = 0.0, np.zeros(permutations), np.ones(permutations, dtype=bool)
    for idx in kept:
        block = np.ix_(idx, idx)
        pos = np.empty(labels.shape[0], dtype=np.intp)
        pos[idx] = np.arange(idx.shape[0])  # the class's own indices
        s, r, t = dense_plain_null(kx[block], kz[block], epsilon, list(pos[table[idx]].T))
        stat += (idx.shape[0] / total) * s
        reps += (idx.shape[0] / total) * r
        ties &= t
    return stat, reps, ties


# dense objective


def dense_cond_objective(xre, y, z, cfgs, epsilon):
    """Dense n x n reference of the conditional value and feature gradient,
    evaluated in np.longdouble and returned as float64.

    ``cfgs`` is a ``CondKernelConfig``; only its bandwidths are read.
    """
    xre = np.asarray(xre, dtype=np.longdouble)
    n = xre.shape[1]
    ridge = n * np.longdouble(epsilon)

    def gauss(m, cfg):
        if cfg is None:
            return np.ones((n, n), dtype=np.longdouble)
        m = np.asarray(m, dtype=np.longdouble)
        diff = m[:, :, None] - m[:, None, :]
        return np.exp(-np.einsum("kij,kij->ij", diff, diff) / cfg.bandwidth_sq)

    kx, ky, kz = gauss(xre, cfgs.x), gauss(y, cfgs.y), gauss(z, cfgs.z)
    rzt = dense_normalized(kz * ky, epsilon)
    s = dense_residual(ky, epsilon)  # I - R_Y
    srzs = s @ rzt @ s
    bx_srzs = ridge_solve(kx * ky, srzs, ridge)
    value = np.trace(srzs - ridge * bx_srzs)
    e = centered(ridge * ridge_solve(kx * ky, bx_srzs.T, ridge)) * ky * kx
    grad = (4 / np.longdouble(cfgs.x.bandwidth_sq)) * (xre @ e - xre * e.sum(axis=1))
    return float(value), grad.astype(float)
