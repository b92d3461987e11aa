"""Dependence statistics on normalized Gram matrices, plus alignment metrics.

The two trace statistics quantify (conditional) dependence between a feature
block X and a domain block Z:

* plain statistic      Tr(R_Z R_X)
* conditional variant  Tr(R_Zt S R_Xt S) with S = I - R_Y,

where R = G (G + n*eps*I)^{-1} is the normalized centered Gram and the
extended blocks Xt = (X, Y), Zt = (Z, Y) use elementwise kernel products.
Both are non-negative and shrink to zero under (conditional) independence as
n grows with eps_n -> 0, eps_n^3 * n -> infinity.

The conditional statistic goes through the cell algebra of
``gradients.cell_terms``, S R_Zt S = V Q V^T with V the centred
n x (c-1) indicator of the samples' cells.  ``cond_from_features`` takes the
cells, the c distinct columns of the stacked (Y; Z) block, from the raw
blocks with ``gradients.cond_cells``, the builder the training objective
uses, so the only n x n Gram it forms is K_Xt.  ``cond`` takes Grams and
groups samples whose rows of [K_Y | K_Zt] are equal.  With L the Cholesky
factor of G_Xt + n*eps*I, the value is Tr(Q (W - n*eps*S^T S)),
S = L^{-1} V.  A shuffle within the label classes fixes K_Y, K_Xt, W and Q
and only permutes the rows of V, so the null replicates cost one batched
triangular solve per block of them.  A shuffle that keeps every sample in
its cell is a hit without being evaluated; an evaluated replicate just
below the statistic is a hit when it leaves K_Zt unchanged entry for entry
(shuffles between interchangeable cells), which is checked only for those.
Each replicate costs O(n^2 (c-1)), so a continuous label or domain block
(c = n) makes it O(n^3).  The plain and per-class statistics keep their
dense normalizations and conjugate R_Z by each permutation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateDataError, InputError, NumericalError
from .gradients import CondKernelConfig, as_block, cell_terms, cond_cells, ridge_cholesky
from .kernels import (
    GramMatrix,
    KernelConfig,
    center,
    check_epsilon,
    cross_sq_dists,
    gram,
    is_constant_block,
    label_gram,
    normalize,
    product_gram,
)

# Right-hand-side columns of one triangular solve in the conditional
# permutation null.  A block holds as many replicates as fit (at least one),
# so the workspace stays within n times this whatever the permutation count.
_BLOCK_COLUMNS = 256
# A replicate whose value lies this close below the statistic (relative to
# the larger of it and Tr(Q W), plus the floor) is checked for an exact tie.
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


def _normalized_entries(k: GramMatrix, epsilon: float) -> np.ndarray:
    return normalize(center(k), epsilon).entries


def _pvalue(null_geq: int, permutations: int) -> float:
    return (1.0 + null_geq) / (1.0 + permutations)


def nocco(kx: GramMatrix, kz: GramMatrix, epsilon: float, *,
          permutations: int = 0, seed: int = 0) -> DependenceReport:
    """Dependence statistic Tr(R_Z R_X) between two kernelized blocks.

    With ``permutations`` > 0 a permutation p-value is attached; the null
    shuffles the Z samples.  Shuffling Z's columns conjugates R_Z by the same
    permutation, so replicates reuse the one normalized matrix.
    """
    if kx.n != kz.n:
        raise InputError(f"sample-count mismatch {kx.n} vs {kz.n}")
    n = kx.n
    rx = _normalized_entries(kx, epsilon)
    rz = _normalized_entries(kz, epsilon)
    stat = float(np.sum(rz * rx))
    pvalue = None
    if permutations > 0:
        hits = 0
        for i in range(permutations):
            perm = np.random.default_rng(seed + i).permutation(n)
            if float(np.sum(rz[np.ix_(perm, perm)] * rx)) >= stat:
                hits += 1
        pvalue = _pvalue(hits, permutations)
    return DependenceReport(stat, StatKind.NOCCO, n, float(epsilon), pvalue)


def _gram_cells(ky: np.ndarray, kzt: np.ndarray) -> np.ndarray:
    """Cell of each sample, numbered by first appearance: two samples share a
    cell exactly when their rows of [K_Y | K_Zt] are equal."""
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(a.tobytes() + b.tobytes(), len(ids))
                     for a, b in zip(ky, kzt)], dtype=np.intp)


def _null_classes(labels, rows: np.ndarray, what: str) -> list[np.ndarray]:
    """Index array of each class of ``labels``, in ``np.unique`` order.

    Every sample of a class must share its row of ``rows`` (its K_Y row or
    its label column), so that shuffles within the classes fix K_Y;
    otherwise an InputError names ``labels``.
    """
    if labels is None:
        raise InputError("permutation test for the conditional statistic needs class labels")
    labels = np.asarray(labels).ravel()
    if labels.shape[0] != rows.shape[0]:
        raise InputError(f"labels length {labels.shape[0]} != sample count {rows.shape[0]}")
    classes = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if not np.all(rows[idx] == rows[idx[0]]):
            raise InputError(f"labels class {c!r} holds samples with different {what}, "
                             "so shuffles within it do not fix K_Y")
        classes.append(idx)
    return classes


def _within_class_permutation(classes: list[np.ndarray], n: int,
                              rng: np.random.Generator) -> np.ndarray:
    perm = np.arange(n)
    for idx in classes:
        perm[idx] = idx[rng.permutation(idx.shape[0])]
    return perm


def _same_domain_gram(cell: np.ndarray, perm: np.ndarray, mzt: np.ndarray) -> bool:
    """True when shuffling by ``perm`` leaves K_Zt = M_Zt[cell, cell] unchanged
    entry for entry, checked on the (cell, shuffled cell) pairs that occur."""
    c = mzt.shape[0]
    src, dst = np.divmod(np.unique(cell * c + cell[perm]), c)
    return bool(np.array_equal(mzt[np.ix_(src, src)], mzt[np.ix_(dst, dst)]))


def _cond_test(kxt: np.ndarray, cell: np.ndarray, my: np.ndarray | None,
               mzt: np.ndarray, epsilon: float, classes: list[np.ndarray] | None,
               permutations: int, seed: int) -> DependenceReport:
    """Statistic and permutation null from K_Xt and the cells with their Grams
    (see ``gradients.cond_cells``); ``classes`` is needed when permuting."""
    n = cell.shape[0]
    ridge = n * epsilon
    v, w, q = cell_terms(cell, my, mzt, ridge)
    factor, _ = ridge_cholesky(kxt, ridge)
    base = float(np.sum(q * w))

    def values(vs: np.ndarray) -> np.ndarray:
        """Tr(Q (W - ne S^T S)), S = L^{-1} V_b, for each V_b = vs[:, b, :]."""
        s = scipy.linalg.solve_triangular(factor, vs.reshape(n, -1), lower=True,
                                          check_finite=False).reshape(vs.shape)
        return base - ridge * np.einsum("nbi,nbi->b", s @ q, s)

    stat = float(values(v[:, None, :])[0])
    pvalue = None
    if permutations > 0:
        per_block = max(1, _BLOCK_COLUMNS // max(1, mzt.shape[0] - 1))
        # an exact tie evaluates to the statistic up to rounding, far inside this
        tie_tol = _TIE_RTOL * max(abs(stat), abs(base)) + _TIE_ATOL
        hits = 0
        for start in range(0, permutations, per_block):
            perms = np.stack([
                _within_class_permutation(classes, n, np.random.default_rng(seed + i))
                for i in range(start, min(start + per_block, permutations))], axis=1)
            # a shuffle that keeps every sample in its cell fixes K_Zt: a hit
            moved = perms[:, np.any(cell[perms] != cell[:, None], axis=0)]
            hits += perms.shape[1] - moved.shape[1]
            if not moved.shape[1]:
                continue
            vals = values(v[moved])
            hits += int(np.count_nonzero(vals >= stat))
            # below the statistic only by rounding: a hit if K_Zt is unchanged
            for j in np.flatnonzero((vals < stat) & (vals >= stat - tie_tol)):
                hits += _same_domain_gram(cell, moved[:, j], mzt)
        pvalue = _pvalue(hits, permutations)
    return DependenceReport(stat, StatKind.COND, n, float(epsilon), pvalue)


def cond(kxt: GramMatrix, kzt: GramMatrix, ky: GramMatrix, epsilon: float, *,
         labels: np.ndarray | None = None, permutations: int = 0,
         seed: int = 0) -> DependenceReport:
    """Conditional dependence statistic Tr(R_Zt S R_Xt S), S = I - R_Y.

    ``kxt`` and ``kzt`` are Grams of the extended blocks (X, Y) and (Z, Y);
    build them with ``product_gram`` or use ``cond_from_blocks``.  The
    permutation null shuffles Z within each class of ``labels``, which every
    sample of a class must share a K_Y row with; such shuffles fix Y, so
    the extended Gram permutes as a whole.
    """
    check_epsilon(epsilon)
    if not (kxt.n == kzt.n == ky.n):
        raise InputError(f"sample-count mismatch {kxt.n}, {kzt.n}, {ky.n}")
    for name, k in (("K_Xt", kxt), ("K_Zt", kzt), ("K_Y", ky)):
        if not np.all(np.isfinite(k.entries)):
            raise NumericalError(f"non-finite entries in {name}")
    classes = _null_classes(labels, ky.entries, "K_Y rows") if permutations > 0 else None
    cell = _gram_cells(ky.entries, kzt.entries)
    first = np.unique(cell, return_index=True)[1]
    my = ky.entries[np.ix_(first, first)]
    mzt = kzt.entries[np.ix_(first, first)]
    return _cond_test(kxt.entries, cell, None if is_constant_block(my) else my, mzt,
                      epsilon, classes, permutations, seed)


def cond_from_blocks(kx: GramMatrix, kz: GramMatrix, ky: GramMatrix,
                     epsilon: float, **kw) -> DependenceReport:
    """Conditional statistic from per-block Grams; forms the products internally."""
    return cond(product_gram(kx, ky), product_gram(kz, ky), ky, epsilon, **kw)


def per_class_nocco(kx: GramMatrix, kz: GramMatrix, labels, epsilon: float, *,
                    permutations: int = 0, seed: int = 0) -> DependenceReport:
    """Class-size-weighted mean of the plain statistic restricted to each class.

    A class is skipped (with a warning) when it has fewer than 2 samples or
    its restricted Z block is constant, i.e. only one domain is present.
    """
    if kx.n != kz.n:
        raise InputError(f"sample-count mismatch {kx.n} vs {kz.n}")
    labels = np.asarray(labels).ravel()
    if labels.shape[0] != kx.n:
        raise InputError(f"labels length {labels.shape[0]} != sample count {kx.n}")

    blocks = []  # (class index array, n_c, R_Z restricted, R_X restricted, stat)
    skipped = 0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        sub_kz = kz.entries[np.ix_(idx, idx)]
        if idx.shape[0] < 2 or np.ptp(sub_kz) <= 1e-15:
            skipped += 1
            continue
        rz = _normalized_entries(GramMatrix(sub_kz), epsilon)
        rx = _normalized_entries(GramMatrix(kx.entries[np.ix_(idx, idx)]), epsilon)
        blocks.append((idx, idx.shape[0], rz, rx, float(np.sum(rz * rx))))
    if skipped:
        warnings.warn(f"per-class statistic skipped {skipped} class(es) with <2 samples "
                      "or a single domain", stacklevel=2)
    if not blocks:
        raise DegenerateDataError("no class has at least 2 samples from at least 2 domains")

    total = sum(nc for _, nc, _, _, _ in blocks)
    stat = float(sum((nc / total) * s for _, nc, _, _, s in blocks))
    pvalue = None
    if permutations > 0:
        hits = 0
        for i in range(permutations):
            rng = np.random.default_rng(seed + i)
            rep = 0.0
            for _, nc, rz, rx, _ in blocks:
                perm = rng.permutation(nc)
                rep += (nc / total) * float(np.sum(rz[np.ix_(perm, perm)] * rx))
            if rep >= stat:
                hits += 1
        pvalue = _pvalue(hits, permutations)
    return DependenceReport(stat, StatKind.PER_CLASS_NOCCO, kx.n, float(epsilon),
                            pvalue, skipped)


def nocco_from_features(x, z, epsilon: float, **kw) -> DependenceReport:
    """Plain statistic from raw matrices; fits bandwidths, builds label-safe Grams."""
    x = np.asarray(x, dtype=float)
    return nocco(gram(x, KernelConfig.from_data(x)), label_gram(z), epsilon, **kw)


def cond_from_features(x, y, z, epsilon: float, *, labels=None, permutations: int = 0,
                       seed: int = 0) -> DependenceReport:
    """Conditional statistic from raw (d, n) feature, label and domain blocks.

    Bandwidths are fitted as ``label_gram`` fits them; the only n x n Gram
    built is K_Xt, since the label and domain kernels are taken over the
    cells of the stacked (Y; Z) block.  Every sample of a class of
    ``labels`` must have the same label column.
    """
    check_epsilon(epsilon)
    n = np.atleast_1d(x).shape[-1]
    x, y, z = (as_block(m, n, name) for m, name in ((x, "feature"), (y, "label"),
                                                      (z, "domain")))
    classes = _null_classes(labels, y.T, "label columns") if permutations > 0 else None
    kxt, cell, my, mzt = cond_cells(x, y, z, CondKernelConfig.resolve(x, y, z))
    return _cond_test(kxt, cell, my, mzt, epsilon, classes, permutations, seed)


def per_class_nocco_from_features(x, z, labels, epsilon: float, **kw) -> DependenceReport:
    """Per-class statistic from raw feature and domain matrices."""
    x = np.asarray(x, dtype=float)
    return per_class_nocco(gram(x, KernelConfig.from_data(x)), label_gram(z),
                           labels, epsilon, **kw)


def mmd(xa, xb, cfg: KernelConfig | None = None) -> float:
    """Biased (V-statistic) squared maximum mean discrepancy.

    mean(K_AA) + mean(K_BB) - 2 mean(K_AB) under a shared Gaussian kernel;
    with cfg=None the bandwidth is fitted on the pooled columns.  All three
    blocks go through the same cross-distance path so xa == xb gives exactly 0.
    """
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if xa.ndim == 1:
        xa = xa[None, :]
    if xb.ndim == 1:
        xb = xb[None, :]
    if xa.shape[1] < 1 or xb.shape[1] < 1:
        raise InputError("both samples must be non-empty")
    if cfg is None:
        cfg = KernelConfig.from_data(np.hstack([xa, xb]))
    s2 = cfg.bandwidth_sq
    kaa = np.exp(-cross_sq_dists(xa, xa) / s2)
    kbb = np.exp(-cross_sq_dists(xb, xb) / s2)
    kab = np.exp(-cross_sq_dists(xa, xb) / s2)
    return float(kaa.mean() + kbb.mean() - 2.0 * kab.mean())


def _adam_logistic(x_train: np.ndarray, y_train: np.ndarray,
                   steps: int = 200, lr: float = 0.1) -> tuple[np.ndarray, float]:
    """Linear logistic probe trained with full-batch adaptive gradient steps."""
    d, n = x_train.shape
    w = np.zeros(d + 1)
    m = np.zeros(d + 1)
    v = np.zeros(d + 1)
    xb = np.vstack([x_train, np.ones((1, n))])
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        z = w @ xb
        p = 1.0 / (1.0 + np.exp(-z))
        g = xb @ (p - y_train) / n
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
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
    attached; classes with fewer than 2 samples in either domain are skipped
    and recorded in ``skipped_classes``.
    """
    xs = np.asarray(xs, dtype=float)
    xt = np.asarray(xt, dtype=float)
    err = _discriminator_error(xs, xt, split_seed)

    per_class = None
    skipped = None
    if labels_s is not None and labels_t is not None:
        labels_s = np.asarray(labels_s).ravel()
        labels_t = np.asarray(labels_t).ravel()
        if labels_s.shape[0] != xs.shape[1] or labels_t.shape[0] != xt.shape[1]:
            raise InputError("label lengths do not match sample counts")
        per_class, skipped = [], []
        for c in np.unique(np.concatenate([labels_s, labels_t])):
            is_, it_ = labels_s == c, labels_t == c
            if is_.sum() < 2 or it_.sum() < 2:
                skipped.append(int(c))
                continue
            try:
                e_c = _discriminator_error(xs[:, is_], xt[:, it_], split_seed)
            except InputError:
                skipped.append(int(c))
                continue
            per_class.append((int(c), 2.0 * (1.0 - 2.0 * e_c)))
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
