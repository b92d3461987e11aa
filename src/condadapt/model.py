"""Two-layer feature transform, linear softmax head, and the adaptation losses.

The transform g maps (d, n) inputs to a (d', n) representation through one
hidden ReLU layer; the head C is a single linear layer with a max-shifted
softmax.  Cross-entropy and entropy are natural-log sums over samples, not
means, so the loss weights act at the sample-count scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_one_hot
from .errors import InputError, ParseError

LOG_CLAMP = 1e-12


@dataclass
class ModelParams:
    """Weights stored (fan_in, fan_out); forward applies the transpose."""

    g_w1: np.ndarray
    g_b1: np.ndarray
    g_w2: np.ndarray
    g_b2: np.ndarray
    c_w: np.ndarray
    c_b: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.g_w1, self.g_b1, self.g_w2, self.g_b2, self.c_w, self.c_b]

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays()))

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(input dim, hidden units, representation dim, classes)."""
        return (self.g_w1.shape[0], self.g_w1.shape[1],
                self.g_w2.shape[1], self.c_w.shape[1])


@dataclass(frozen=True)
class LossBreakdown:
    """Loss terms of one step; total is derived once, never re-summed."""

    ce: float
    cond: float
    ent: float
    beta1: float
    beta2: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total",
                           self.ce + self.beta1 * self.cond + self.beta2 * self.ent)


def init_params(dim_in: int, hidden: int, rep: int, classes: int,
                seed: int = 0) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    if min(dim_in, hidden, rep, classes) < 1:
        raise InputError("all layer sizes must be positive")
    rng = np.random.default_rng(seed)

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=fan_out)
        return w, b

    g_w1, g_b1 = layer(dim_in, hidden)
    g_w2, g_b2 = layer(hidden, rep)
    c_w, c_b = layer(rep, classes)
    return ModelParams(g_w1, g_b1, g_w2, g_b2, c_w, c_b)


@dataclass
class ForwardState:
    """Cached activations of one full-batch forward pass."""

    x: np.ndarray
    pre_hidden: np.ndarray
    hidden: np.ndarray
    xre: np.ndarray
    probs: np.ndarray


def softmax_columns(logits) -> np.ndarray:
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def forward_pass(params: ModelParams, x) -> ForwardState:
    x = np.asarray(x, dtype=float)
    pre = params.g_w1.T @ x + params.g_b1[:, None]
    hidden = np.maximum(pre, 0.0)
    xre = params.g_w2.T @ hidden + params.g_b2[:, None]
    probs = softmax_columns(params.c_w.T @ xre + params.c_b[:, None])
    return ForwardState(x, pre, hidden, xre, probs)


def backward_pass(params: ModelParams, state: ForwardState, dlogits,
                  dxre=None) -> list[np.ndarray]:
    """Parameter gradients for upstream dL/dlogits plus optional direct dL/dxre.

    Returns arrays ordered as ``ModelParams.arrays()``.  ReLU uses the
    subgradient 0 at exactly 0.
    """
    dlogits = np.asarray(dlogits, dtype=float)
    dxre_total = params.c_w @ dlogits
    if dxre is not None:
        dxre_total = dxre_total + dxre
    c_w_g = state.xre @ dlogits.T
    c_b_g = dlogits.sum(axis=1)
    dhidden = params.g_w2 @ dxre_total
    g_w2_g = state.hidden @ dxre_total.T
    g_b2_g = dxre_total.sum(axis=1)
    dpre = dhidden * (state.pre_hidden > 0.0)
    g_w1_g = state.x @ dpre.T
    g_b1_g = dpre.sum(axis=1)
    return [g_w1_g, g_b1_g, g_w2_g, g_b2_g, c_w_g, c_b_g]


def loss_ce(probs, ys) -> float:
    """Summed cross-entropy -sum_ij y_ij log p_ij over labeled columns."""
    probs = np.asarray(probs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if probs.shape != ys.shape:
        raise InputError(f"probability shape {probs.shape} != label shape {ys.shape}")
    check_one_hot(ys)
    return float(-np.sum(ys * np.log(np.maximum(probs, LOG_CLAMP))))


def loss_entropy(probs) -> float:
    """Summed prediction entropy -sum_ij p_ij log p_ij; in [0, n log K]."""
    probs = np.asarray(probs, dtype=float)
    return float(-np.sum(probs * np.log(np.maximum(probs, LOG_CLAMP))))


def entropy_grad_wrt_logits(probs) -> np.ndarray:
    """d/dlogits of the summed entropy: column-wise -p * (log p + H(p))."""
    probs = np.asarray(probs, dtype=float)
    logp = np.log(np.maximum(probs, LOG_CLAMP))
    ent = -np.sum(probs * logp, axis=0, keepdims=True)
    return -probs * (logp + ent)


def save_params(params: ModelParams, path):
    """Write a text dump: shape header then one full-precision row per line."""
    names = ["g_w1", "g_b1", "g_w2", "g_b2", "c_w", "c_b"]
    d, h, r, k = params.dims
    with open(path, "w") as fh:
        fh.write(f"condadapt-model 1 dims {d} {h} {r} {k}\n")
        for name, arr in zip(names, params.arrays()):
            mat = np.atleast_2d(arr)
            fh.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_params(path) -> ModelParams:
    """Read a dump written by ``save_params``; round-trips bit-exactly."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("condadapt-model 1 "):
        raise ParseError("not a condadapt model file (bad header)")
    pos = 1
    arrays = {}
    for name in ["g_w1", "g_b1", "g_w2", "g_b2", "c_w", "c_b"]:
        if pos >= len(lines):
            raise ParseError(f"truncated model file: missing block {name!r}")
        head = lines[pos].split()
        if len(head) != 3 or head[0] != name:
            raise ParseError(f"line {pos + 1}: expected block header for {name!r}")
        try:
            rows, cols = int(head[1]), int(head[2])
        except ValueError as exc:
            raise ParseError(f"line {pos + 1}: block {name!r} header has a non-integer "
                             f"shape: {exc}") from exc
        block = lines[pos + 1: pos + 1 + rows]
        if len(block) < rows:
            raise ParseError(f"truncated model file inside block {name!r}")
        try:
            mat = np.array([[float(v) for v in ln.split()] for ln in block])
        except ValueError as exc:
            raise ParseError(f"bad float in block {name!r}: {exc}") from exc
        if mat.shape != (rows, cols):
            raise ParseError(f"block {name!r} has shape {mat.shape}, header says {(rows, cols)}")
        arrays[name] = mat
        pos += 1 + rows
    return ModelParams(arrays["g_w1"], arrays["g_b1"][0], arrays["g_w2"],
                       arrays["g_b2"][0], arrays["c_w"], arrays["c_b"][0])
