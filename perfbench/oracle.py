"""Dense reference for the conditional statistic, independent of condadapt.

Tr(R_Zt S R_Xt S) with S = I - R_Y, R = G (G + n eps I)^{-1}, G = H K H,
Gaussian kernels whose sigma^2 is the mean pairwise squared distance, and the
all-ones Gram for a constant block.  Everything is formed explicitly with
``np.linalg``; nothing is shared with the package's kernels or solver.
"""

from __future__ import annotations

import numpy as np


def _gaussian_gram(m: np.ndarray) -> np.ndarray:
    diff = m[:, :, None] - m[:, None, :]
    d2 = np.einsum("kij,kij->ij", diff, diff)
    mean = d2.mean()
    if mean == 0.0:
        return np.ones_like(d2)
    return np.exp(-d2 / mean)


def cond_statistic(x: np.ndarray, y: np.ndarray, z: np.ndarray, epsilon: float) -> float:
    """x, y, z are (d, n) blocks with samples as columns."""
    n = x.shape[1]
    eye = np.eye(n)
    h = eye - np.full((n, n), 1.0 / n)

    def normalized(k):
        g = h @ k @ h
        # (G + n eps I)^{-1} G equals G (G + n eps I)^{-1}: the two commute
        return np.linalg.solve(g + n * epsilon * eye, g)

    ky = _gaussian_gram(y)
    rxt = normalized(_gaussian_gram(x) * ky)
    rzt = normalized(_gaussian_gram(z) * ky)
    s = eye - normalized(ky)
    return float(np.trace(rzt @ s @ rxt @ s))
