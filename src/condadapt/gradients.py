"""Closed-form gradients of the trace dependence objectives.

The conditional objective L(X) = Tr(R_Zt S R_Xt S), S = I - R_Y, with
R = G (G + ne I)^{-1}, G = H K H and ne = n * eps (the NOCCO estimator of
Fukumizu, Gretton, Sun & Schoelkopf 2008), depends on the feature matrix X
through the Gaussian Gram K_X alone.

The label and domain kernels see a sample only through its column of the
stacked block (Y; Z), so they factor through the c distinct columns of
that block, its cells: K = U M U^T with U the n x c cell indicator and M a
c x c Gram over the cells.  The columns of H U sum to zero, so the largest
cell is dropped: V = H U' over the other c - 1 cells, H K H = V M' V^T with
the contrast M' = C^T M C, C = [I; -1^T], and W = V^T V is invertible.
The push-through identity turns each normalization into a small solve,

    R = V A V^T,        A = M' (W M' + ne I)^{-1},
    S R_Zt S = V Q V^T, Q = T A_Zt T^T,  T = I - A_Y W = ne (M'_Y W + ne I)^{-1}.

The one n x n factorization left is that of G_Xt + ne I, solved against
V's c - 1 columns: P = (G_Xt + ne I)^{-1} V.  The value and the chain to
the features are then

    L         = Tr(Q (W - ne V^T P))
    dL/dK_Xt  = ne * (HP) Q (HP)^T              (symmetric)
    dL/dK_X   = dL/dK_Xt * K_Y                  (elementwise)
    dL/dX     = (4 / s2) * X (E - diag(E 1)),  E = dL/dK_X * K_X,

using dK_X[i,j]/dx_i = -(2/s2)(x_i - x_j) K_X[i,j].  Hard labels give at
most K (N+1) cells; soft pseudo-labels make each target column a cell of
its own and run through the same code.  Bandwidths are treated as
constants of the step (stop-gradient through the mean-squared-distance
rule), so finite-difference checks must hold them fixed too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import (
    KernelConfig,
    as_block,
    center,
    check_epsilon,
    gram,
    is_constant_block,
    pairwise_sq_dists,
    ridged_cho_factor,
)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    probes: int
    step: float


@dataclass(frozen=True)
class CondKernelConfig:
    """Per-block kernel settings for the conditional objective.

    ``None`` for the label or domain block means the block is constant and
    its Gram is all ones (the zero-distance Gaussian limit).
    """

    x: KernelConfig
    y: KernelConfig | None
    z: KernelConfig | None

    @classmethod
    def resolve(cls, xre, y, z) -> "CondKernelConfig":
        """Fit mean-squared-distance bandwidths on the current blocks."""
        return cls(
            KernelConfig.from_data(np.asarray(xre, dtype=float)),
            _label_config(y),
            _label_config(z),
        )


def _label_config(m) -> KernelConfig | None:
    return None if is_constant_block(m) else KernelConfig.from_data(m)


def _cell_gram(cells: np.ndarray, cfg: KernelConfig | None) -> np.ndarray:
    if cfg is None:
        return np.ones((cells.shape[1], cells.shape[1]))
    return gram(cells, cfg).entries


def _contrast(m: np.ndarray, keep: np.ndarray, ref: int) -> np.ndarray:
    """C^T M C: the cell Gram seen from the dropped cell ``ref``."""
    return (m[np.ix_(keep, keep)] - m[keep, ref][:, None] - m[ref, keep][None, :]
            + m[ref, ref])


def _normalized_cells(m: np.ndarray, w: np.ndarray, ridge: float) -> np.ndarray:
    """A with R = V A V^T: M (W M + ne I)^{-1} = (M W + ne I)^{-1} M, symmetric."""
    a = np.linalg.solve(m @ w + ridge * np.eye(m.shape[0]), m)
    return 0.5 * (a + a.T)


def cell_terms(cell: np.ndarray, my: np.ndarray | None, mzt: np.ndarray,
               ridge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """V, W = V^T V and Q with S R_Zt S = V Q V^T, from the cell structure.

    ``cell`` gives each sample's cell, numbered 0 .. c-1 with none empty;
    ``my`` and ``mzt`` are the c x c label and extended-domain Grams over the
    cells, ``my`` None for a constant label kernel (R_Y = 0, so S = I), and
    ``ridge`` is n * eps.  The fourth result lists the c - 1 cells that V's
    columns indicate, in column order.
    """
    n = cell.shape[0]
    counts = np.bincount(cell).astype(float)
    c = counts.shape[0]
    # Dropping a cell keeps (1/ne)-sized terms along the null vector of H U
    # out of A and Q; dropping the largest keeps W best conditioned.
    ref = int(counts.argmax())
    keep = np.delete(np.arange(c), ref)
    v = np.zeros((n, c))
    v[np.arange(n), cell] = 1.0
    v = v[:, keep] - counts[keep] / n
    w = np.diag(counts[keep]) - np.outer(counts[keep], counts[keep]) / n
    q = _normalized_cells(_contrast(mzt, keep, ref), w, ridge)
    if my is not None:
        t = ridge * np.linalg.inv(_contrast(my, keep, ref) @ w + ridge * np.eye(c - 1))
        q = t @ q @ t.T
        q = 0.5 * (q + q.T)
    return v, w, q, keep


def cond_cells(xre: np.ndarray, y: np.ndarray, z: np.ndarray, cfgs: CondKernelConfig
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """K_Xt and the cells of the stacked (Y; Z) block, with their Grams.

    Returns (K_Xt, cell, M_Y, M_Zt): ``cell`` numbers each sample's distinct
    (Y; Z) column, M_Y and M_Zt = M_Z * M_Y are c x c Grams over the cells
    under the bandwidths of ``cfgs``, M_Y is None for a constant label
    kernel, and K_Xt = K_X * M_Y[cell, cell] is the n x n extended Gram.
    """
    kx = np.exp(-pairwise_sq_dists(xre) / cfgs.x.bandwidth_sq)
    if not np.all(np.isfinite(kx)):
        raise NumericalError("feature kernel matrix has non-finite entries")
    cells, cell = np.unique(np.vstack([y, z]), axis=1, return_inverse=True)
    cell = cell.ravel()
    my = _cell_gram(cells[:y.shape[0]], cfgs.y)
    mzt = _cell_gram(cells[y.shape[0]:], cfgs.z) * my
    kxt = kx * my[np.ix_(cell, cell)]
    return kxt, cell, None if cfgs.y is None else my, mzt


def ridge_cholesky(kxt: np.ndarray, ridge: float):
    """Lower Cholesky factor of H K_Xt H + ne I, in ``cho_factor`` form."""
    return ridged_cho_factor(center(kxt), ridge)


def cond_objective(xre, y, z, cfgs: CondKernelConfig | None,
                   epsilon: float) -> tuple[float, np.ndarray]:
    """Value and feature gradient of the conditional dependence objective.

    ``xre`` is the (d', n) transformed-feature matrix, ``y`` the (K, n) label
    block (hard or soft), ``z`` the (N+1, n) domain block.  A constant ``z``
    makes the objective identically zero: with a single domain there is no
    dependence to remove, so both value and gradient vanish.
    """
    check_epsilon(epsilon)
    if np.ndim(xre) != 2:  # the gradient takes the shape of xre
        raise InputError(f"feature block must be (d', n), got ndim={np.ndim(xre)}")
    xre = as_block(xre, "feature")
    n = xre.shape[1]
    y = as_block(y, "label", n)
    z = as_block(z, "domain", n)
    if is_constant_block(z):
        return 0.0, np.zeros_like(xre)
    if cfgs is None:
        cfgs = CondKernelConfig.resolve(xre, y, z)
    if cfgs.y is None and cfgs.z is None:  # K_Zt = 1 centers to 0, so R_Zt = 0
        return 0.0, np.zeros_like(xre)

    kxt, cell, my, mzt = cond_cells(xre, y, z, cfgs)
    ridge = n * epsilon
    v, w, q, _ = cell_terms(cell, my, mzt, ridge)
    factor = ridge_cholesky(kxt, ridge)
    p = scipy.linalg.cho_solve(factor, v, check_finite=False)
    p -= p.mean(axis=0)  # H P equals P in exact arithmetic
    value = float(np.sum(q * (w - ridge * (v.T @ p))))

    dk = ridge * (p @ q @ p.T)
    e = 0.5 * (dk + dk.T) * kxt
    grad = (4.0 / cfgs.x.bandwidth_sq) * (xre @ e - xre * e.sum(axis=1)[None, :])
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient assembly produced non-finite entries")
    return value, grad


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
