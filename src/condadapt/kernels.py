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

# Elements per row block of an n x n pass, so its temporaries stay this size
# instead of a second n x n array
_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel settings.

    ``bandwidth_sq`` is sigma^2 in k(x, x') = exp(-||x - x'||^2 / sigma^2);
    ``from_data`` fits it to the mean of all pairwise squared distances.
    """

    bandwidth_sq: float

    def __post_init__(self):
        check_positive("bandwidth_sq", self.bandwidth_sq)

    @classmethod
    def from_data(cls, x: np.ndarray) -> "KernelConfig":
        """Fit sigma^2 to the mean squared pairwise distance of x's columns."""
        return cls(mean_sq_dist_bandwidth(x))


@dataclass(frozen=True)
class GramMatrix:
    """Exactly symmetric kernel matrix over n samples."""

    entries: np.ndarray

    def __post_init__(self):
        k = _square(self.entries)
        if not np.array_equal(k, k.T):
            raise InputError("Gram matrix must be exactly symmetric")
        object.__setattr__(self, "entries", k)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def check_positive(name: str, value: float):
    """ConfigError naming ``name`` unless ``value`` is positive and finite."""
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def check_integer(name: str, value, low: int = 0):
    """ConfigError naming ``name`` unless ``value`` is a non-bool integer >= ``low``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def as_block(m, name: str, n: int | None = None) -> np.ndarray:
    """m as a finite (rows, columns) float block in C order, a 1-d m as one row.

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
    return np.ascontiguousarray(m)


def row_blocks(rows: int, cols: int):
    """Slices covering range(rows), each of at most _BLOCK_ELEMENTS // cols rows."""
    step = max(1, _BLOCK_ELEMENTS // max(1, cols))
    return (slice(i, i + step) for i in range(0, rows, step))


def pairwise_sq_dists(x) -> np.ndarray:
    """All-pairs squared Euclidean distances of x's columns.

    numpy evaluates ``x.T @ x`` for the C-ordered x with a symmetric rank-k
    update (one triangle computed, then mirrored), so (sq_i + sq_j) - 2 g_ij
    is exactly symmetric and its bits do not depend on the caller's layout.
    It is written into the product's own buffer, one row block at a time.
    The diagonal is set to exactly zero.
    """
    x = as_block(x, "data")
    sq = np.einsum("ij,ij->j", x, x)
    d2 = x.T @ x
    for rows in row_blocks(*d2.shape):
        g = d2[rows]
        g *= 2.0
        np.subtract(np.add.outer(sq[rows], sq), g, out=g)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def is_constant_block(m) -> bool:
    """True when every column of m equals the first, compared exactly."""
    m = as_block(m, "data")
    return bool(np.all(m == m[:, :1]))


def distinct_columns(m) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct column of the 2-d float array m, in
    lexicographic order (first row first), and each column's number among
    them: ``np.unique(m, axis=1, return_index=True, return_inverse=True)``'s,
    from one stable lexsort and a compare of neighbours."""
    order = np.lexsort(m[::-1])
    ordered = m[:, order]
    new = np.ones(order.shape[0], dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    number = np.empty_like(order)
    number[order] = np.cumsum(new) - 1
    return order[new], number


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
    first, cell = distinct_columns(x)
    if first.shape[0] < x.shape[1]:
        rows = first[cell]
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


def _square(k) -> np.ndarray:
    """The entries of a GramMatrix or of a square array, as floats."""
    m = k.entries if isinstance(k, GramMatrix) else np.asarray(k, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


def center(k) -> np.ndarray:
    """Double-center a Gram matrix: H K H with H = I - 11^T/n.

    Accepts a GramMatrix or a plain square array; returns a symmetric array
    whose rows and columns sum to ~0.
    """
    m = _square(k)
    row = m.mean(axis=1, keepdims=True)
    col = m.mean(axis=0, keepdims=True)
    g = m - row - col + m.mean()
    return 0.5 * (g + g.T)


def ridged_cho_factor(g: np.ndarray, ridge: float):
    """Lower Cholesky factor of g + ridge * I in ``cho_factor`` form; adds the ridge to g.

    A Fortran-ordered g is factored in place and holds the factor afterwards.
    """
    g.flat[::g.shape[0] + 1] += ridge
    try:
        return scipy.linalg.cho_factor(g, lower=True, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized Gram is not positive definite: {exc}") from exc


def normalize(g, epsilon: float) -> np.ndarray:
    """R = G (G + n*eps*I)^{-1} via a Cholesky solve of the regularized matrix.

    For a centered Gram G, R is symmetric with eigenvalues in [0, 1).
    Uses the identity R = I - n*eps*(G + n*eps*I)^{-1}; the inverse is applied
    through an SPD factorization, never formed from an unsymmetrized product.
    """
    check_positive("epsilon", epsilon)
    g = _square(g)
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
