"""Gaussian kernels, Gram matrices, centering and regularized normalization.

Conventions: samples are columns, so a data matrix has shape (d, n), and
``as_block`` is the one check of such a block.  All
Gram-level operations work on exactly symmetric float64 matrices; symmetry is
enforced by construction (see ``pairwise_sq_dists``), not by trust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateDataError, InputError, NumericalError


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel settings.

    ``bandwidth_sq`` is sigma^2 in k(x, x') = exp(-||x - x'||^2 / sigma^2);
    ``from_data`` fits it to the mean of all pairwise squared distances.
    """

    bandwidth_sq: float

    def __post_init__(self):
        b = self.bandwidth_sq
        if not (np.isfinite(b) and b > 0):
            raise ConfigError(f"bandwidth_sq must be positive and finite, got {b!r}")

    @classmethod
    def from_data(cls, x: np.ndarray) -> "KernelConfig":
        """Fit sigma^2 to the mean squared pairwise distance of x's columns."""
        return cls(mean_sq_dist_bandwidth(x))


@dataclass(frozen=True)
class GramMatrix:
    """Exactly symmetric kernel matrix over n samples."""

    entries: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.entries, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError(f"Gram matrix must be square, got shape {k.shape}")
        if not np.array_equal(k, k.T):
            raise InputError("Gram matrix must be exactly symmetric")
        object.__setattr__(self, "entries", k)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def check_epsilon(epsilon: float):
    """ConfigError unless the regularization eps is positive and finite."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon!r}")


def as_block(m, name: str, n: int | None = None) -> np.ndarray:
    """m as a finite (rows, columns) float block, a 1-d m as one row.

    The block needs at least one column, and exactly ``n`` when ``n`` is
    given; otherwise an InputError names it by ``name``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2 or m.shape[1] < 1 or (n is not None and m.shape[1] != n):
        want = "at least one column" if n is None else f"{n} columns"
        raise InputError(f"{name} block has shape {m.shape}, expected (rows, columns) "
                         f"with {want}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} block contains non-finite values")
    return m


def pairwise_sq_dists(x) -> np.ndarray:
    """All-pairs squared Euclidean distances of x's columns.

    numpy evaluates ``x.T @ x`` with a symmetric rank-k update (one triangle
    computed, then mirrored) when x has a unit stride, so the Gram term is
    exactly symmetric, and so is (sq_i + sq_j) - 2 g_ij; a view strided in
    both axes is copied first.  The diagonal is set to exactly zero.
    """
    x = as_block(x, "data")
    if x.itemsize not in x.strides:
        x = np.ascontiguousarray(x)
    sq = np.einsum("ij,ij->j", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def cross_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between columns of a and columns of b, two blocks
    with the same number of rows."""
    d2 = (
        np.einsum("ij,ij->j", a, a)[:, None]
        + np.einsum("ij,ij->j", b, b)[None, :]
        - 2.0 * (a.T @ b)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def is_constant_block(m) -> bool:
    """True when every column of m equals the first, compared exactly."""
    m = as_block(m, "data")
    return bool(np.all(m == m[:, :1]))


def mean_sq_dist_bandwidth(x) -> float:
    """Mean of all n^2 pairwise squared distances, self-pairs included.

    Computed in O(n d) as 2 * mean ||x_i - mean(x)||^2.  Identical columns
    are detected exactly first: their rounded mean can differ from them, so
    the closed form alone would return a tiny positive value.
    """
    x = as_block(x, "data")
    if x.shape[1] < 2:
        raise InputError("bandwidth fit needs at least 2 samples")
    if is_constant_block(x):
        raise DegenerateDataError("all samples identical: mean squared distance is zero")
    dev = x - x.mean(axis=1, keepdims=True)
    s2 = 2.0 * float(np.einsum("ij,ij->", dev, dev)) / x.shape[1]
    if not s2 > 0.0:
        raise DegenerateDataError("mean squared distance underflows to zero")
    return s2


def gram(x, cfg: KernelConfig) -> GramMatrix:
    """Gaussian Gram matrix of x's columns; unit diagonal, exactly symmetric.

    Equal columns get exactly equal rows: the expanded distance of two equal
    columns need not round to 0, so each column takes the rows of the first
    column equal to it.  A Gram without equal columns is left as computed.
    """
    x = as_block(x, "data")
    k = np.exp(-pairwise_sq_dists(x) / cfg.bandwidth_sq)
    _, first, cell = np.unique(x, axis=1, return_index=True, return_inverse=True)
    if first.shape[0] < x.shape[1]:
        rows = first[cell.ravel()]
        k = k[np.ix_(rows, rows)]
    return GramMatrix(k)


def label_gram(m) -> GramMatrix:
    """Gaussian Gram for label-like column data, safe for constant input.

    A constant matrix (all columns identical) yields the all-ones Gram, the
    exact Gaussian limit for zero distances under any bandwidth.
    """
    m = as_block(m, "data")
    if is_constant_block(m):
        return GramMatrix(np.ones((m.shape[1], m.shape[1])))
    return gram(m, KernelConfig.from_data(m))


def product_gram(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Elementwise (Schur) product; PSD whenever both factors are."""
    if a.n != b.n:
        raise InputError(f"size mismatch {a.n} vs {b.n}")
    return GramMatrix(a.entries * b.entries)


def center(k) -> np.ndarray:
    """Double-center a Gram matrix: H K H with H = I - 11^T/n.

    Accepts a GramMatrix or a plain square array; returns a symmetric array
    whose rows and columns sum to ~0.
    """
    m = k.entries if isinstance(k, GramMatrix) else np.asarray(k, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    row = m.mean(axis=1, keepdims=True)
    col = m.mean(axis=0, keepdims=True)
    g = m - row - col + m.mean()
    return 0.5 * (g + g.T)


def ridged_cho_factor(g: np.ndarray, ridge: float):
    """Lower Cholesky factor of g + ridge * I in ``cho_factor`` form; adds the ridge to g."""
    g.flat[::g.shape[0] + 1] += ridge
    try:
        return scipy.linalg.cho_factor(g, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized Gram is not positive definite: {exc}") from exc


def normalize(g, epsilon: float) -> np.ndarray:
    """R = G (G + n*eps*I)^{-1} via a Cholesky solve of the regularized matrix.

    For a centered Gram G, R is symmetric with eigenvalues in [0, 1).
    Uses the identity R = I - n*eps*(G + n*eps*I)^{-1}; the inverse is applied
    through an SPD factorization, never formed from an unsymmetrized product.
    """
    check_epsilon(epsilon)
    g = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InputError(f"expected a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite entries in matrix passed to normalize")
    n = g.shape[0]
    ridge = n * epsilon
    factor = ridged_cho_factor(g.copy(), ridge)
    b = scipy.linalg.cho_solve(factor, np.eye(n), check_finite=False)
    r = np.eye(n) - ridge * b
    r = 0.5 * (r + r.T)
    if not np.all(np.isfinite(r)):
        raise NumericalError("normalization produced non-finite entries")
    return r
