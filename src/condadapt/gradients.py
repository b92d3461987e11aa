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

The one n x n quantity left is P = (G_Xt + ne I)^{-1} V.  V's columns
sum to zero, so P lies in 1-perp and needs no centered Gram: with
B = (K_Xt + ne I)^{-1} = L^{-T} L^{-1} and r = L^{-1} 1 / |L^{-1} 1|,

    F = (I - r r^T) L^{-1} V,  P = L^{-T} F = BV - (B1)(1^T BV) / (1^T B1).

``regularized_factor`` gives L, factoring the exactly symmetric K_Xt it
is given in place as its Fortran-ordered transpose, and r;
``projected_solve`` gives F and ``cond_values`` the values for each
(n, c - 1) slice of an (n, b, c - 1) stack of V's.  The permutation null
solves only s = c - G of those columns per replicate: its shuffles keep
each sample in its label group (cells with one label column, G of them), so
each group's column sum is fixed.  The value and
the chain to the features are

    L         = Tr(Q W) - ne * sum(F Q * F)      (elementwise)
    dL/dK_Xt  = ne * P Q P^T
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
    check_positive,
    distinct_columns,
    is_constant_block,
    pairwise_sq_dists,
    ridged_cho_factor,
    row_blocks,
)


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
    c = cells.shape[1]
    if cfg is None:
        return np.ones((c, c))
    # direct differences: exact for one-hot cells, no cancellation for soft ones
    d2 = np.zeros((c, c))
    for row in cells:  # one block row at a time keeps memory at c^2
        d2 += np.square(row[:, None] - row[None, :])
    np.divide(d2, -cfg.bandwidth_sq, out=d2)
    return np.exp(d2, out=d2)


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
    # built in place; dividing by -s2 gives the bits of exp(-d2 / s2)
    kxt = pairwise_sq_dists(xre)
    np.divide(kxt, -cfgs.x.bandwidth_sq, out=kxt)
    np.exp(kxt, out=kxt)
    if not np.all(np.isfinite(kxt)):
        raise NumericalError("feature kernel matrix has non-finite entries")
    yz = np.vstack([y, z])
    first, cell = distinct_columns(yz)
    my = _cell_gram(yz[:y.shape[0], first], cfgs.y)
    mzt = _cell_gram(yz[y.shape[0]:, first], cfgs.z) * my
    if cfgs.y is None:  # M_Y is all ones
        return kxt, cell, None, mzt
    for rows in row_blocks(*kxt.shape):
        kxt[rows] *= my[cell[rows]][:, cell]
    return kxt, cell, my, mzt


def regularized_factor(kxt: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    low, _ = ridged_cho_factor(kxt.T, ridge)
    r = scipy.linalg.solve_triangular(low, np.ones(low.shape[0]), lower=True,
                                      check_finite=False)
    return low, r / np.linalg.norm(r)


def projected_solve(low: np.ndarray, r: np.ndarray, vs: np.ndarray) -> np.ndarray:
    f = scipy.linalg.solve_triangular(low, vs.reshape(vs.shape[0], -1), lower=True,
                                      check_finite=False).reshape(vs.shape)
    f -= r[:, None, None] * np.einsum("n,nbi->bi", r, f)
    return f


def cond_values(low: np.ndarray, r: np.ndarray, vs: np.ndarray, q: np.ndarray,
                w: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    f = projected_solve(low, r, vs)
    # one product per slice over its n rows, on f's own strides: f @ q on the
    # (n, b, c - 1) stack would run n small ones, a 2-D reshape would copy f
    fq = np.matmul(f.transpose(1, 0, 2), q)
    return np.sum(q * w) - ridge * np.einsum("bni,nbi->b", fq, f), f


def cond_objective(xre, y, z, cfgs: CondKernelConfig | None,
                   epsilon: float) -> tuple[float, np.ndarray]:
    """Value and feature gradient of the conditional dependence objective.

    ``xre`` is the (d', n) transformed-feature matrix, ``y`` the (K, n) label
    block (hard or soft), ``z`` the (N+1, n) domain block.  A constant ``z``
    gives 0.0 and a zero gradient by convention (one domain, nothing to
    remove), where ``cond_from_features`` returns the estimator's value.
    """
    check_positive("epsilon", epsilon)
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

    kxt, cell, my, mzt = cond_cells(xre, y, z, cfgs)
    ridge = n * epsilon
    v, w, q, _ = cell_terms(cell, my, mzt, ridge)
    low, r = regularized_factor(kxt.copy(), ridge)  # E reads K_Xt below
    values, f = cond_values(low, r, v[:, None], q, w, ridge)
    p = scipy.linalg.solve_triangular(low, f[:, 0], trans="T", lower=True,
                                      check_finite=False)
    # E reuses the factor's buffer, a C-ordered copy of K_Xt
    e = np.matmul(p @ (ridge * q), p.T, out=low.T)
    e *= kxt
    grad = (4.0 / cfgs.x.bandwidth_sq) * (xre @ e - xre * e.sum(axis=1)[None, :])
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient assembly produced non-finite entries")
    return float(values[0]), grad
