"""Dependence statistics on normalized Gram matrices, plus alignment metrics.

The two trace statistics quantify (conditional) dependence between a feature
block X and a domain block Z:

* plain statistic      Tr(R_Z R_X)
* conditional variant  Tr(R_Zt S R_Xt S) with S = I - R_Y,

where R = G (G + n*eps*I)^{-1} is the normalized centered Gram and the
extended blocks Xt = (X, Y), Zt = (Z, Y) use elementwise kernel products.
Both are non-negative and shrink to zero under (conditional) independence as
n grows with eps_n -> 0, eps_n^3 * n -> infinity.

One core, ``_null_core``, computes every statistic and permutation
replicate.  The plain statistic is the conditional one with a constant label
block (R_Y = 0, so S = I).  One routine, ``_grouped_report``, draws the
shuffles, fits bandwidths on the whole blocks and runs ``cond_cells`` and
the core on each group of samples (all of them, or each kept class for the
per-class statistic) with the shuffles in the group's own indices, summing
the results weighted by group size.  The core uses the cells of
``gradients.cell_terms``, S R_Zt S = V Q V^T: the distinct columns of the
stacked (Y; Z) block (``gradients.cond_cells``) or, in ``cond``, the one
route from given Grams, the distinct rows of [K_Y | K_Zt], and, as the
objective does, one factor of the uncentered K_Xt + n*eps*I.

A shuffle within the label classes only permutes the rows of V, so a
replicate needs only F_pi^T F_pi, with F as in ``gradients`` for the
shuffled V: with Phi = L^{-1} V_pi and u = Phi^T r it is Phi^T Phi - u u^T,
so F_pi itself is never formed.  A shuffle also keeps every sample in its
label group, the cells with one label column (one K_Y row in ``cond``; one
group for a constant label block): each class shares one, as
``_null_classes`` checks.  So the sum of
V's columns over a group without the dropped cell is the same in every
replicate; with G groups, a replicate solves only s = c - G columns.  The
statistic is always ``gradients.cond_values`` over all c - 1 columns, the
objective's call.  For the replicates a cost model in n, s and their count
picks one of two exact evaluators: the batched triangular solve, O(n^2 s)
per replicate, or the c x c block sums over the permuted cell pairs of
B - (B1)(B1)^T / (1^T B1), B = (K_Xt + n*eps*I)^{-1}, whose rows and
columns sum to zero: one ``np.bincount``, O(n^2) per replicate once
formed.  A shuffle that keeps every sample in its cell, or within rounding
of the statistic leaves the feature columns or K_Zt unchanged entry for
entry, is an exact tie and gets the statistic's value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateDataError, InputError, NumericalError
from .gradients import (CondKernelConfig, cell_terms, cond_cells, cond_values, projected_solve,
                        regularized_factor)
from .kernels import (GramMatrix, KernelConfig, as_block, check_integer, check_positive,
                      distinct_columns, gram, is_constant_block)
from .trainer import AdamConfig, AdamState, adam_step

# Right-hand-side columns per block of replicates (at least one replicate),
# so the null's workspace stays within n times this.
_BLOCK_COLUMNS = 256
# Replicate evaluator choice.  The triangular solve costs about n s (n + 2 s)
# flops per replicate of s = c - G solved columns, G label groups, the solve
# and the s x s Grams (its O(n s) gather and cross-term pass are left out).
# Block sums cost about n^3 once (dpotri's 2n^3/3) and n^2 bincount entries
# per replicate, each as slow as this many flops of the solve.  Fitted with
# one BLAS thread (OpenBLAS 0.3.31, 2-vCPU Intel Xeon) on warm calls with each
# evaluator forced: n = 100-800, G = 1-32, 2, 3, 6 or n domains, 20 and 200
# permutations, 2 data seeds: the chosen one was at most 1.60 times slower than
# the faster at n = 100-200 (the solve's cost per block) and 1.68 at n >= 300.
_BINCOUNT_FLOPS = 32
# A replicate whose value lies this close to the statistic (relative to the
# larger of it and Tr(Q W), plus the floor) is checked for an exact tie.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12


class StatKind(Enum):
    NOCCO = "nocco"
    COND = "cond"
    PER_CLASS_NOCCO = "per-class-nocco"


@dataclass(frozen=True)
class DependenceReport:
    statistic: float
    kind: StatKind
    n: int
    epsilon: float
    permutation_pvalue: float | None = None
    skipped_classes: int = 0


@dataclass(frozen=True)
class AdistanceReport:
    """Domain-discriminator distance d_A = 2 (1 - 2 * test error)."""

    d_a: float
    classifier_test_error: float
    per_class: list[tuple[int, float]] | None = None
    skipped_classes: list[int] | None = None

    @classmethod
    def from_error(cls, err: float, **kw) -> "AdistanceReport":
        return cls(2.0 * (1.0 - 2.0 * err), err, **kw)


def _pvalue(stat: float, null: np.ndarray) -> float | None:
    """(1 + #{replicates >= stat}) / (1 + #replicates); None without replicates."""
    if not null.shape[0]:
        return None
    return float((1 + np.count_nonzero(null >= stat)) / (1 + null.shape[0]))


def _class_indices(labels, n: int, name: str) -> dict:
    """Each class of the label vector ``labels`` (``np.unique`` order) -> its
    samples' indices; an InputError names ``name`` unless it has ``n`` entries."""
    labels = np.asarray(labels).ravel()
    if labels.shape[0] != n:
        raise InputError(f"{name} length {labels.shape[0]} != sample count {n}")
    return {c: np.flatnonzero(labels == c) for c in np.unique(labels)}


def _null_classes(labels, rows: np.ndarray, what: str) -> list[np.ndarray]:
    """Index array of each class of ``labels``, in ``np.unique`` order.

    Every sample of a class must share its row of ``rows`` (its K_Y row or
    its label column), so that shuffles within the classes fix K_Y;
    otherwise an InputError names ``labels``.
    """
    if labels is None:
        raise InputError("permutation test for the conditional statistic needs class labels")
    classes = _class_indices(labels, rows.shape[0], "labels")
    for c, idx in classes.items():
        if not np.all(rows[idx] == rows[idx[0]]):
            raise InputError(f"labels class {c} holds samples with different {what}, "
                             "so shuffles within it do not fix K_Y")
    return list(classes.values())


def _shuffles(classes: list[np.ndarray], n: int, permutations: int, seed: int) -> np.ndarray:
    """Column i shuffles each class's samples among themselves; the table is one
    draw from ``default_rng(SeedSequence(seed).spawn(1)[0])``, per class in list
    order one ``rng.permuted`` of its index column repeated per column (equal to,
    and as fast as, the row layout).  A negative count or seed is a ConfigError."""
    check_integer("permutations", permutations)
    check_integer("seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    perms = np.tile(np.arange(n)[:, None], (1, permutations))
    for idx in classes:
        perms[idx] = rng.permuted(np.repeat(idx[:, None], permutations, axis=1), axis=0)
    return perms


def _same_domain_gram(cell: np.ndarray, perm: np.ndarray, mzt: np.ndarray) -> bool:
    """True when shuffling by ``perm`` leaves K_Zt = M_Zt[cell, cell] unchanged
    entry for entry, checked on the (cell, shuffled cell) pairs that occur."""
    c = mzt.shape[0]
    src, dst = np.divmod(np.unique(cell * c + cell[perm]), c)
    return bool(np.array_equal(mzt[np.ix_(src, src)], mzt[np.ix_(dst, dst)]))


def _moved_columns(low: np.ndarray, r: np.ndarray, v: np.ndarray, q: np.ndarray,
                   base: float, ridge: float, group: np.ndarray,
                   fixed: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Replicate values that solve only V's moved columns.

    ``group`` gives the label group of each of V's columns.  Column
    ``fixed[g]`` is replaced by the sum of V's columns over its group, which
    no within-class shuffle changes: V = V' T, so sum(F Q * F) = sum(F' Q' * F')
    with Q' = T Q T^T.  The fixed columns' F' = Psi is solved once; with the
    moved ones F_m per replicate, sum(F' Q' * F') =
    sum(F_m (F_m Q'_mm + 2 Psi Q'_fm)) + sum(Psi Q'_ff * Psi).  With no
    fixed column (one label group), T = I and this is ``cond_values``' sum.
    """
    member = (group[:, None] == group[fixed]).astype(float)
    t = np.eye(q.shape[0])
    t[:, fixed] = 2.0 * t[:, fixed] - member
    qt = t @ q @ t.T
    mov = np.delete(np.arange(q.shape[0]), fixed)
    psi = projected_solve(low, r, (v @ member)[:, None])[:, 0]
    cross = 2.0 * (psi @ qt[np.ix_(fixed, mov)])
    const = base - ridge * np.sum((psi @ qt[np.ix_(fixed, fixed)]) * psi)
    q_mm, v_t, rc, s = qt[np.ix_(mov, mov)], v[:, mov].T.copy(), r @ cross, mov.shape[0]

    def values_of(ps: np.ndarray) -> np.ndarray:
        # F_m = Phi - r u^T, Phi = L^{-1} V_m[pi], u = Phi^T r and |r| = 1, so F_m^T F_m
        # = Phi^T Phi - u u^T and <F_m, cross> = <Phi, cross> - u . r^T cross.  The (s, b, n)
        # gather is V_m[pi] in Fortran order, solved in place: phi[k, j] is Phi_j's column k
        n, b = ps.shape
        rhs = np.take(v_t, ps.T, axis=1).reshape(s * b, n).T
        phi = scipy.linalg.solve_triangular(low, rhs, lower=True, check_finite=False,
                                            overwrite_b=True).T.reshape(s, b, n)
        u, grams = phi @ r, np.einsum("ibn,jbn->bij", phi, phi)
        quad = (np.einsum("bij,ij->b", grams, q_mm) - np.einsum("ib,ij,jb->b", u, q_mm, u)
                + np.einsum("kbk->b", (phi.reshape(s * b, n) @ cross).reshape(s, b, s)) - rc @ u)
        return const - ridge * quad
    return values_of


def _null_core(kxt: np.ndarray, cell: np.ndarray, group: np.ndarray, my: np.ndarray | None,
               mzt: np.ndarray, epsilon: float, perms: np.ndarray,
               x: np.ndarray) -> tuple[float, np.ndarray]:
    """Statistic and one replicate value per column of ``perms`` from K_Xt, the
    cells with their Grams (as ``gradients.cond_cells`` returns them), each
    cell's label group number ``group`` (a shuffled class lies in one group)
    and the feature block or K_Xt ``x``.  K_Xt is factored in place."""
    n, c = cell.shape[0], mzt.shape[0]
    ridge = n * epsilon
    v, w, q, keep = cell_terms(cell, my, mzt, ridge)
    low, r = regularized_factor(kxt, ridge)
    stat = float(cond_values(low, r, v[:, None], q, w, ridge)[0][0])  # the objective's call
    # a shuffle that keeps every sample in its cell fixes K_Zt: a tie
    moved = np.flatnonzero(np.any(cell[perms] != cell[:, None], axis=0))
    m = moved.shape[0]
    values = np.full(perms.shape[1], stat)
    if not m:
        return stat, values
    base = float(np.sum(q * w))
    # for each label group without the dropped cell, one column is fixed
    kept = group[keep]
    first = np.unique(kept, return_index=True)[1]
    fixed = first[kept[first] != np.delete(group, keep)[0]]
    width = c - 1 - fixed.shape[0]
    if n ** 3 + m * _BINCOUNT_FLOPS * n * n < n * m * width * (n + 2 * width):
        # block sums of B - (B1)(B1)^T / (1^T B1) over cell pairs
        inv, info = scipy.linalg.lapack.dpotri(low, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"inverting the regularized Gram failed (info {info})")
        b = np.tril(inv)
        b += np.tril(inv, -1).T
        b1 = b.sum(axis=1)
        b -= np.outer(b1, b1 / b1.sum())
        qc = np.zeros((c, c))
        qc[np.ix_(keep, keep)] = q

        def values_of(ps: np.ndarray) -> np.ndarray:
            sums = [np.bincount(((cp * c)[:, None] + cp).ravel(), weights=b.ravel(),
                                minlength=c * c) for cp in cell[ps.T]]
            return base - ridge * (np.array(sums) @ qc.ravel())
        width = c - 1  # replicates per block as for a solve of all c - 1 columns
    else:
        values_of = _moved_columns(low, r, v, q, base, ridge, kept, fixed)

    per_block = max(1, _BLOCK_COLUMNS // max(1, width))
    for start in range(0, m, per_block):
        js = moved[start:start + per_block]
        values[js] = values_of(perms[:, js])
    # within rounding of the statistic: a tie if K_Xt or K_Zt is unchanged
    tie_tol = _TIE_RTOL * max(abs(stat), abs(base)) + _TIE_ATOL
    for j in moved[np.abs(values[moved] - stat) <= tie_tol]:
        if (np.array_equal(x[:, perms[:, j]], x)
                or _same_domain_gram(cell, perms[:, j], mzt)):
            values[j] = stat
    return stat, values


def cond(kxt: GramMatrix, kzt: GramMatrix, ky: GramMatrix, epsilon: float, *,
         labels: np.ndarray | None = None, permutations: int = 0,
         seed: int = 0) -> DependenceReport:
    """Conditional dependence statistic Tr(R_Zt S R_Xt S), S = I - R_Y.

    ``kxt`` and ``kzt`` are Grams of the extended blocks (X, Y) and (Z, Y);
    build them with ``product_gram``.  The permutation null shuffles Z
    within each class of ``labels``, which every sample of a class must
    share a K_Y row with (checked whenever ``labels`` is given); such
    shuffles fix Y, so the extended Gram permutes as a whole.
    """
    check_positive("epsilon", epsilon)
    if not (kxt.n == kzt.n == ky.n):
        raise InputError(f"sample-count mismatch {kxt.n}, {kzt.n}, {ky.n}")
    for name, k in (("K_Xt", kxt), ("K_Zt", kzt), ("K_Y", ky)):
        if not np.all(np.isfinite(k.entries)):
            raise NumericalError(f"non-finite entries in {name}")
    classes = (_null_classes(labels, ky.entries, "K_Y rows")
               if labels is not None or permutations > 0 else [])
    # two samples share a cell when their rows of K_Y and K_Zt are equal, and
    # cells share a label group when their K_Y rows compare equal, as in the
    # class check (+ 0.0 turns -0.0 into 0.0)
    ids: dict[tuple[bytes, bytes], int] = {}
    cell = np.array([ids.setdefault((a.tobytes(), b.tobytes()), len(ids))
                     for a, b in zip(ky.entries, kzt.entries)], dtype=np.intp)
    first = np.unique(cell, return_index=True)[1]
    rows: dict[bytes, int] = {}
    group = np.array([rows.setdefault((ky.entries[i] + 0.0).tobytes(), len(rows))
                      for i in first], dtype=np.intp)
    my = None if is_constant_block(ky.entries) else ky.entries[np.ix_(first, first)]
    stat, null = _null_core(kxt.entries.copy(), cell, group, my,
                            kzt.entries[np.ix_(first, first)], epsilon,
                            _shuffles(classes, ky.n, permutations, seed), kxt.entries)
    return DependenceReport(stat, StatKind.COND, ky.n, float(epsilon), _pvalue(stat, null))


def _grouped_report(kind: StatKind, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    groups: list[np.ndarray], epsilon: float, permutations: int, seed: int,
                    classes: list[np.ndarray] | None = None, skipped: int = 0) -> DependenceReport:
    """Report summed over ``groups``, shuffled within ``classes`` or else the groups."""
    n = x.shape[1]
    perms = _shuffles(groups if classes is None else classes, n, permutations, seed)
    cfgs = CondKernelConfig.resolve(x, y, z)
    total = sum(idx.shape[0] for idx in groups)
    pos = np.empty(n, dtype=np.intp)  # each sample's index within its group
    # summed in group order, so a replicate that ties in every group ties exactly
    stat, null = 0.0, np.zeros(permutations)
    for idx in groups:
        pos[idx] = np.arange(idx.shape[0])
        xg, yg, zg, local = ((x, y, z, perms) if idx.shape[0] == n else  # all n: as they are
                             (x[:, idx], y[:, idx], z[:, idx], pos[perms[idx]]))
        kxt, cell, my, mzt = cond_cells(xg, yg, zg, cfgs)
        some = np.empty(mzt.shape[0], dtype=np.intp)
        some[cell] = np.arange(cell.shape[0])  # a sample of each cell
        # cells with one label column share a label group
        group = distinct_columns(yg[:, some])[1]
        s, values = _null_core(kxt, cell, group, my, mzt, epsilon, local, xg)
        stat += (idx.shape[0] / total) * s
        null += (idx.shape[0] / total) * values
    return DependenceReport(stat, kind, n, float(epsilon), _pvalue(stat, null), skipped)


def nocco_from_features(x, z, epsilon: float, *, permutations: int = 0,
                        seed: int = 0) -> DependenceReport:
    """Plain statistic Tr(R_Z R_X) from raw (d, n) feature and domain blocks:
    the conditional one with a constant label block.  Its null has one class:
    the table of n x ``permutations`` shuffles is one draw from the child
    stream ``SeedSequence(seed).spawn(1)[0]``."""
    check_positive("epsilon", epsilon)
    x = as_block(x, "feature")
    n = x.shape[1]
    z = as_block(z, "domain", n)
    return _grouped_report(StatKind.NOCCO, x, np.zeros((1, n)), z, [np.arange(n)], epsilon,
                           permutations, seed)


def cond_from_features(x, y, z, epsilon: float, *, labels=None, permutations: int = 0,
                       seed: int = 0) -> DependenceReport:
    """Conditional statistic from raw (d, n) feature, label and domain blocks.

    Bandwidths are fitted as ``label_gram`` fits them; the only n x n Gram
    built is K_Xt, since the label and domain kernels are taken over the
    cells of the stacked (Y; Z) block.  Every sample of a class of
    ``labels``, when given, must have the same label column.  A constant
    domain block gives the estimator's value, where ``cond_objective``
    returns 0.0.
    """
    check_positive("epsilon", epsilon)
    x = as_block(x, "feature")
    n = x.shape[1]
    y = as_block(y, "label", n)
    z = as_block(z, "domain", n)
    classes = (_null_classes(labels, y.T, "label columns")
               if labels is not None or permutations > 0 else [])
    return _grouped_report(StatKind.COND, x, y, z, [np.arange(n)], epsilon, permutations,
                           seed, classes)


def per_class_nocco_from_features(x, z, labels, epsilon: float, *, permutations: int = 0,
                                  seed: int = 0) -> DependenceReport:
    """Class-size-weighted mean of the plain statistic restricted to each class.

    Bandwidths are fitted on the whole blocks.  A class is skipped (with a
    warning) when it has fewer than 2 samples or all its domain columns equal.
    Replicate i shuffles within every kept class; the table is one draw from
    the child stream ``SeedSequence(seed).spawn(1)[0]``, one class after
    another in ``np.unique`` order.
    """
    check_positive("epsilon", epsilon)
    x = as_block(x, "feature")
    n = x.shape[1]
    z = as_block(z, "domain", n)
    classes = _class_indices(labels, n, "labels").values()
    kept = [idx for idx in classes
            if idx.shape[0] >= 2 and not is_constant_block(z[:, idx])]
    skipped = len(classes) - len(kept)
    if skipped:
        warnings.warn(f"per-class statistic skipped {skipped} class(es) with <2 samples "
                      "or a single domain", stacklevel=2)
    if not kept:
        raise DegenerateDataError("no class has at least 2 samples from at least 2 domains")
    return _grouped_report(StatKind.PER_CLASS_NOCCO, x, np.zeros((1, n)), z, kept, epsilon,
                           permutations, seed, skipped=skipped)


def _two_samples(xs, xt) -> tuple[np.ndarray, np.ndarray]:
    """Source and target blocks of a two-sample metric, with equal feature rows."""
    xs = as_block(xs, "source")
    xt = as_block(xt, "target")
    if xs.shape[0] != xt.shape[0]:
        raise InputError(f"target block has {xt.shape[0]} feature rows, "
                         f"source block has {xs.shape[0]}")
    return xs, xt


def mmd(xa, xb) -> float:
    """Biased (V-statistic) squared maximum mean discrepancy.

    mean(K_AA) + mean(K_BB) - 2 mean(K_AB) under a shared Gaussian kernel
    between the source sample xa and the target sample xb, blocks with the
    same rows; the bandwidth is fitted on the pooled columns.
    The three blocks are cut from one Gram of the pooled columns, which gives
    equal columns equal rows, so xa == xb gives exactly 0.
    """
    xa, xb = _two_samples(xa, xb)
    pooled = np.hstack([xa, xb])
    k = gram(pooled, KernelConfig.from_data(pooled)).entries
    na = xa.shape[1]
    return float(k[:na, :na].mean() + k[na:, na:].mean() - 2.0 * k[:na, na:].mean())


def _adam_logistic(x_train: np.ndarray, y_train: np.ndarray) -> tuple[np.ndarray, float]:
    """Linear logistic probe trained with 200 full-batch Adam steps at rate 0.1."""
    d, n = x_train.shape
    w = np.zeros(d + 1)
    weights = SimpleNamespace(arrays=lambda: [w])  # what ``adam_step`` updates
    state, cfg = AdamState.for_params(weights), AdamConfig()
    xb = np.vstack([x_train, np.ones((1, n))])
    for _ in range(200):
        p = 1.0 / (1.0 + np.exp(-(w @ xb)))
        adam_step(weights, [xb @ (p - y_train) / n], state, 0.1, cfg)
    return w[:-1], w[-1]


def _discriminator_error(xs: np.ndarray, xt: np.ndarray, split_seed: int) -> float:
    """Test error of a linear domain discriminator on a 50/50 stratified split."""
    ns, nt = xs.shape[1], xt.shape[1]
    if ns < 4 or nt < 4:
        raise InputError("domain-discriminator distance needs at least 4 samples per domain")
    rng = np.random.default_rng(split_seed)
    ps, pt = rng.permutation(ns), rng.permutation(nt)
    hs, ht = ns // 2, nt // 2
    x_tr = np.hstack([xs[:, ps[:hs]], xt[:, pt[:ht]]])
    y_tr = np.concatenate([np.zeros(hs), np.ones(ht)])
    x_te = np.hstack([xs[:, ps[hs:]], xt[:, pt[ht:]]])
    y_te = np.concatenate([np.zeros(ns - hs), np.ones(nt - ht)])

    mu = x_tr.mean(axis=1, keepdims=True)
    sd = x_tr.std(axis=1, keepdims=True)
    sd[sd < 1e-12] = 1.0
    w, b = _adam_logistic((x_tr - mu) / sd, y_tr)
    pred = (w @ ((x_te - mu) / sd) + b > 0.0).astype(float)
    return float(np.mean(pred != y_te))


def a_distance(xs, xt, split_seed: int = 0, *,
               labels_s=None, labels_t=None) -> AdistanceReport:
    """Domain-discriminator distance d_A = 2 (1 - 2 eps) between two samples.

    eps is the held-out error of a linear logistic discriminator (200
    adaptive-gradient steps on standardized features, 50/50 stratified
    split).  The value is reported raw, without clamping, so a discriminator
    worse than chance shows up as d_A < 0 rather than being hidden.

    With ``labels_s`` and ``labels_t`` a per-class list of (class, d_A_c) is
    attached; classes with fewer than 4 samples in either domain are skipped
    and recorded in ``skipped_classes``.  Giving only one of the two is an
    InputError naming the missing one.
    """
    xs, xt = _two_samples(xs, xt)
    check_integer("split_seed", split_seed)
    if (labels_s is None) != (labels_t is None):
        missing = "labels_t" if labels_t is None else "labels_s"
        raise InputError(f"per-class d_A needs both label vectors; {missing} is missing")
    err = _discriminator_error(xs, xt, split_seed)

    per_class = None
    skipped = None
    if labels_s is not None:
        classes_s = _class_indices(labels_s, xs.shape[1], "labels_s")
        classes_t = _class_indices(labels_t, xt.shape[1], "labels_t")
        per_class, skipped = [], []
        for c in sorted(classes_s.keys() | classes_t.keys()):
            is_, it_ = classes_s.get(c, []), classes_t.get(c, [])
            try:
                e_c = _discriminator_error(xs[:, is_], xt[:, it_], split_seed)
            except InputError:
                skipped.append(int(c))
                continue
            per_class.append((int(c), AdistanceReport.from_error(e_c).d_a))
        if not per_class:
            raise DegenerateDataError("no class has enough samples in both domains")
    return AdistanceReport.from_error(err, per_class=per_class, skipped_classes=skipped)


def convergence_probe(generator: Callable[[int, int], tuple], sizes: Sequence[int],
                      epsilon_rule: Callable[[int], float] | None = None, *,
                      seed: int = 0) -> list[tuple[int, float]]:
    """Conditional statistic across sample sizes under a shrinking-epsilon rule.

    ``generator(n, seed)`` must return raw (X, Y, Z) matrices with n columns.
    The default rule eps_n = n^(-1/4) satisfies eps_n -> 0 with
    eps_n^3 * n -> infinity; a rule whose eps_n^3 * n does not grow over the
    requested sizes draws a config warning, since the statistic is then not
    guaranteed to converge under conditional independence.
    """
    sizes = [int(n) for n in sizes]
    if not sizes or any(n < 4 for n in sizes):
        raise ConfigError("sizes must be non-empty with n >= 4")
    if epsilon_rule is None:
        epsilon_rule = lambda n: float(n) ** -0.25
    eps = [float(epsilon_rule(n)) for n in sizes]
    if any(e <= 0 for e in eps):
        raise ConfigError("epsilon rule must stay positive")
    growth = [e ** 3 * n for e, n in zip(eps, sizes)]
    if len(sizes) > 1 and growth[-1] <= growth[0]:
        warnings.warn("epsilon rule violates eps^3 * n -> infinity over the probed sizes; "
                      "the statistic need not converge", stacklevel=2)
    out = []
    for n, e in zip(sizes, eps):
        x, y, z = generator(n, seed)
        out.append((n, cond_from_features(x, y, z, e).statistic))
    return out
