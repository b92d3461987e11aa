"""Source pre-training, pseudo-label refresh, and full-batch adaptation.

The protocol: pre-train the network on labeled source data with summed
cross-entropy, initialize target pseudo-labels from its predictions, then
repeat full-batch steps on the total objective followed by a pseudo-label
refresh from the just-updated model.  Everything is deterministic given the
config seed; the only randomness is the parameter initialization.

An adaptation step runs one forward pass, after its update: its target columns
set the pseudo-labels and answer the next ``target_accuracy``, and the next step
on the same ``AdamState`` reuses it.  The parameters the step returns are
read-only (``copy()`` to edit), so an in-place edit raises and a replaced array
is not reused.  The dataset's arrays are never frozen: the forward is reused
only while the dataset's features equal, bit for bit, the features it read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np

from .data import AdaptationDataset, one_hot
from .errors import ConfigError, InputError, NumericalError
from .gradients import cond_objective
from .kernels import check_integer, check_positive
from .model import (
    LossBreakdown,
    ModelParams,
    backward_pass,
    entropy_grad_wrt_logits,
    forward_pass,
    init_params,
    loss_ce,
    loss_entropy,
)


class PseudoLabelMode(Enum):
    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and 0.0 <= value < 1.0):
                raise ConfigError(f"AdamConfig.{name} must lie in [0, 1), got {value!r}")
        check_positive("AdamConfig.eps", self.eps)


@dataclass(frozen=True)
class TrainConfig:
    beta1: float = 1e-2
    beta2: float = 5e-3
    epsilon: float = 1e-4
    pretrain_epochs: int = 100
    adapt_epochs: int = 100
    learning_rate: float = 1e-3
    adam: ClassVar[AdamConfig] = AdamConfig()  # fixed, not a constructor argument
    seed: int = 0
    pseudo_label_mode: PseudoLabelMode = PseudoLabelMode.HARD
    hidden_units: int = 512
    rep_dim: int = 512

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")
        for name in ("epsilon", "learning_rate"):
            check_positive(name, getattr(self, name))
        for name, low in (("pretrain_epochs", 0), ("adapt_epochs", 0), ("seed", 0),
                          ("hidden_units", 1), ("rep_dim", 1)):
            check_integer(name, getattr(self, name), low)


@dataclass
class TrainTrace:
    """Per-epoch records of a fit.

    ``losses`` holds one record per epoch of both phases, pretraining first;
    ``target_accuracy`` one per adaptation epoch only, the value the step's
    carried forward already gives.  Pretraining evaluates nothing on the target.
    """

    losses: list[LossBreakdown] = field(default_factory=list)
    target_accuracy: list[float | None] = field(default_factory=list)


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    scratch: list[np.ndarray] = field(init=False, repr=False)
    # (parameter arrays, features, ForwardState) of the last adaptation step
    carried: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.scratch = [np.empty_like(m) for m in self.m]

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls([np.zeros_like(a) for a in params.arrays()],
                   [np.zeros_like(a) for a in params.arrays()])


def adam_step(params: ModelParams, grads: list[np.ndarray], state: AdamState,
              lr: float, cfg: AdamConfig):
    """One in-place adaptive moment update over all parameter arrays, via ``state.scratch``."""
    state.t += 1
    c1 = 1.0 - cfg.beta1 ** state.t
    c2 = 1.0 - cfg.beta2 ** state.t
    for a, g, m, v, s in zip(params.arrays(), grads, state.m, state.v, state.scratch):
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=s)
        v *= cfg.beta2
        v += np.multiply(np.multiply(1.0 - cfg.beta2, g, out=s), g, out=s)
        np.add(np.sqrt(np.divide(v, c2, out=s), out=s), cfg.eps, out=s)
        a -= np.divide(lr * (m / c1), s, out=s)


def _check_update(params: ModelParams, where: str):
    if not all(np.all(np.isfinite(a)) for a in params.arrays()):
        raise NumericalError(f"Adam update produced non-finite parameters at {where}")


def _reusable(record: tuple | None, params: ModelParams, dataset: AdaptationDataset) -> bool:
    """Whether ``record``'s forward read these very parameter arrays, all still
    read-only (it keeps them alive, so equal ids mean the same arrays), and
    features equal to the dataset's bit for bit."""
    if record is None or any(a.flags.writeable for a in params.arrays()):
        return False
    arrays, x, _ = record
    features = dataset.features
    return (list(map(id, arrays)) == list(map(id, params.arrays()))
            and features.shape == x.shape and features.tobytes() == x.tobytes())


def target_accuracy(params: ModelParams, dataset: AdaptationDataset) -> float | None:
    """Fraction of target predictions matching the evaluation labels, if any."""
    if dataset.target_truth is None:
        return None
    if _reusable(dataset._last_step, params, dataset):  # the step that returned params
        pred = dataset._last_step[2]
    else:
        pred = forward_pass(params, dataset.target).probs.argmax(axis=0)
    truth = dataset.target_truth.argmax(axis=0)
    return float(np.count_nonzero(pred == truth) / truth.shape[0])


def init_params_for(dataset: AdaptationDataset, config: TrainConfig) -> ModelParams:
    return init_params(dataset.dim, config.hidden_units, config.rep_dim,
                       dataset.classes, config.seed)


def pretrain(dataset: AdaptationDataset, config: TrainConfig,
             params: ModelParams) -> tuple[ModelParams, TrainTrace]:
    """Full-batch cross-entropy training on the concatenated sources.

    Each epoch runs one forward pass, over the sources only.  Returns updated
    parameters (the input object is not mutated) and a trace of the per-epoch
    losses; with 0 epochs the returned parameters equal the input bit for bit.
    """
    params = params.copy()
    trace = TrainTrace()
    xs, ys = dataset.source_features, dataset.source_labels
    state = AdamState.for_params(params)
    for epoch in range(config.pretrain_epochs):
        st = forward_pass(params, xs)
        ce = loss_ce(st.probs, ys)
        if not np.isfinite(ce):
            raise NumericalError(f"cross-entropy became non-finite at pretrain epoch {epoch}")
        grads = backward_pass(params, st, st.probs - ys)
        adam_step(params, grads, state, config.learning_rate, config.adam)
        _check_update(params, f"pretrain epoch {epoch}")
        trace.losses.append(LossBreakdown(ce, 0.0, 0.0, config.beta1, config.beta2))
    return params, trace


def init_pseudo_labels(dataset: AdaptationDataset, params: ModelParams,
                       mode: PseudoLabelMode = PseudoLabelMode.HARD) -> AdaptationDataset:
    """Set target pseudo-labels from the model's current predictions."""
    dataset.pseudo_labels = _pseudo_labels(forward_pass(params, dataset.target).probs, mode)
    return dataset


def _pseudo_labels(probs: np.ndarray, mode: PseudoLabelMode) -> np.ndarray:
    if mode is PseudoLabelMode.SOFT:
        return probs.copy()
    # argmax breaks ties toward the lowest class index
    return one_hot(probs.argmax(axis=0), probs.shape[0])


def adapt_epoch(dataset: AdaptationDataset, config: TrainConfig,
                params: ModelParams,
                opt_state: AdamState | None = None) -> tuple[ModelParams, LossBreakdown]:
    """One full-batch step on the total objective, then a pseudo-label refresh.

    Returns new, read-only parameters and the loss terms that produced the
    step's gradient, i.e. before the update.  Terms with zero weight are
    skipped and recorded as 0.  A non-finite term aborts with the offending
    loss named.
    """
    if dataset.pseudo_labels is None:
        raise InputError("initialize pseudo-labels before adaptation")
    if opt_state is None:
        opt_state = AdamState.for_params(params)
    carried = opt_state.carried  # looked up before the copy, whose arrays are new
    st = (carried[2] if _reusable(carried, params, dataset)
          else forward_pass(params, dataset.features))
    params = params.copy()

    ns = dataset.n_source
    ys = dataset.source_labels
    probs_s, probs_t = st.probs[:, :ns], st.probs[:, ns:]

    ce = loss_ce(probs_s, ys)
    dlogits = np.zeros_like(st.probs)
    dlogits[:, :ns] = probs_s - ys
    if not np.isfinite(ce) or not np.all(np.isfinite(dlogits)):
        raise NumericalError("cross-entropy term produced a non-finite value or gradient")

    ent = 0.0
    if config.beta2 != 0.0:
        ent = loss_entropy(probs_t)
        ent_grad = entropy_grad_wrt_logits(probs_t)
        if not np.isfinite(ent) or not np.all(np.isfinite(ent_grad)):
            raise NumericalError("entropy term produced a non-finite value or gradient")
        dlogits[:, ns:] = config.beta2 * ent_grad

    dxre = None
    cond_term = 0.0
    if config.beta1 != 0.0:
        y_all = np.hstack([ys, dataset.pseudo_labels])
        z = dataset.domain_matrix
        cond_term, cond_grad = cond_objective(st.xre, y_all, z, None, config.epsilon)
        if not np.isfinite(cond_term) or not np.all(np.isfinite(cond_grad)):
            raise NumericalError("conditional dependence term produced a non-finite "
                                 "value or gradient")
        dxre = config.beta1 * cond_grad

    grads = backward_pass(params, st, dlogits, dxre)
    adam_step(params, grads, opt_state, config.learning_rate, config.adam)
    # the optimizer counts steps; in ``fit`` step t is adaptation epoch t - 1
    _check_update(params, f"adaptation epoch {opt_state.t - 1}")
    arrays = tuple(params.arrays())
    for a in arrays:  # the parameters the carried forward reads
        a.setflags(write=False)
    # the old state lives until this one exists, so its pages are not re-faulted
    st = forward_pass(params, dataset.features)
    opt_state.carried = (arrays, st.x, st)
    probs_t = st.probs[:, ns:]
    dataset.pseudo_labels = _pseudo_labels(probs_t, config.pseudo_label_mode)
    dataset._last_step = (arrays, st.x, probs_t.argmax(axis=0))
    return params, LossBreakdown(ce, cond_term, ent, config.beta1, config.beta2)


def fit(dataset: AdaptationDataset, config: TrainConfig,
        pretrained: tuple[ModelParams, TrainTrace] | None = None) -> tuple[ModelParams, TrainTrace]:
    """Pre-train (or take ``pretrained``, ``pretrain``'s result for this dataset
    and a config that differs at most in beta1, beta2 and epsilon; a network of
    other dimensions is a ConfigError), set pseudo-labels, then adapt."""
    if pretrained is None:
        pretrained = pretrain(dataset, config, init_params_for(dataset, config))
    params, pre_trace = pretrained
    dims = (dataset.dim, config.hidden_units, config.rep_dim, dataset.classes)
    if params.dims != dims:
        raise ConfigError(f"pretrained network has dims {params.dims}, but the dataset "
                          f"and config give {dims} (input, hidden, rep, classes)")
    trace = TrainTrace(list(pre_trace.losses))
    init_pseudo_labels(dataset, params, config.pseudo_label_mode)
    opt_state = AdamState.for_params(params)
    for _ in range(config.adapt_epochs):
        params, breakdown = adapt_epoch(dataset, config, params, opt_state)
        trace.losses.append(breakdown)
        trace.target_accuracy.append(target_accuracy(params, dataset))
    return params, trace
