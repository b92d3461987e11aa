"""The adaptation dataset type, synthetic domain-shift generators and
delimited feature-file I/O.

Generators are deterministic in the spec seed.  Ground-truth target labels
live in the dataset's evaluation-only slot (``target_truth``); nothing on the
training path consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .kernels import as_block, check_integer, check_positive


@dataclass
class AdaptationDataset:
    """Sources with labels, unlabeled target, and mutable pseudo-labels.

    ``target_truth`` is evaluation-only ground truth; no training path reads
    it.  ``pseudo_labels`` follow a single-writer (trainer) / multi-reader
    contract.
    """

    sources: list[tuple[np.ndarray, np.ndarray]]
    target: np.ndarray
    pseudo_labels: np.ndarray | None = None
    target_truth: np.ndarray | None = None
    # (parameter arrays, features, target argmax) of the last adaptation step
    _last_step: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sources:
            raise InputError("need at least one source domain")
        self.target = as_block(self.target, "target")
        sources = []
        for i, (x, y) in enumerate(self.sources):
            x = as_block(x, f"source {i}")
            sources.append((x, as_block(y, f"source {i} labels", x.shape[1])))
            if x.shape[0] != self.dim:
                raise InputError(f"source {i} has {x.shape[0]} feature rows, "
                                 f"target has {self.dim}")
        self.sources = sources
        labels = [(f"source {i} labels", y) for i, (_, y) in enumerate(sources)]
        if self.target_truth is not None:
            self.target_truth = as_block(self.target_truth, "target_truth",
                                         self.n_target)
            labels.append(("target_truth", self.target_truth))
        for name, y in labels:
            if y.shape[0] != self.classes:
                raise InputError(f"{name} has {y.shape[0]} rows, expected "
                                 f"{self.classes} classes")
            check_one_hot(y, name)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def classes(self) -> int:
        return self.sources[0][1].shape[0]

    @property
    def dim(self) -> int:
        return self.target.shape[0]

    @property
    def n_source(self) -> int:
        return sum(x.shape[1] for x, _ in self.sources)

    @property
    def n_target(self) -> int:
        return self.target.shape[1]

    @property
    def source_features(self) -> np.ndarray:
        return np.hstack([x for x, _ in self.sources])

    @property
    def source_labels(self) -> np.ndarray:
        return np.hstack([y for _, y in self.sources])

    @property
    def features(self) -> np.ndarray:
        return np.concatenate([*(x for x, _ in self.sources), self.target], axis=1)

    @property
    def domain_matrix(self) -> np.ndarray:
        """One-hot (num_sources + 1, n) block: sources in order, then target."""
        counts = [x.shape[1] for x, _ in self.sources] + [self.n_target]
        return np.repeat(np.eye(len(counts)), counts, axis=1)


class SyntheticKind(Enum):
    SHIFTED_BLOBS = "shifted-blobs"
    ROTATED_MOONS = "rotated-moons"
    CONDITIONAL_CHAIN = "conditional-chain"


@dataclass(frozen=True)
class SyntheticSpec:
    """Shared knobs for the synthetic families.

    ``shift`` is the target's mean offset for blobs and chains, a scalar s
    read as (s, 0) or a 2-vector.  For the rotated moons (2 classes) it is
    the target's rotation angle in radians, a scalar.  ``class_spacing`` sets
    the blobs' class means; the chain and the moons keep the default.  ``kind``
    must be a ``SyntheticKind`` and every value finite; a bad spec is a
    ConfigError naming the field when it is built.
    """

    kind: SyntheticKind
    classes: int = 2
    samples_per_class_per_domain: int = 50
    shift: tuple[float, ...] | float = 0.0
    noise_sd: float = 0.3
    num_sources: int = 1
    seed: int = 0
    class_spacing: float = 6.0  # neighbour mean separation in noise-sd units

    def __post_init__(self):
        if not isinstance(self.kind, SyntheticKind):
            raise ConfigError(f"kind must be a SyntheticKind, got {self.kind!r}")
        for name, low in (("classes", 2), ("samples_per_class_per_domain", 2),
                          ("num_sources", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        for name in ("noise_sd", "class_spacing"):
            check_positive(name, getattr(self, name))
        if (self.kind is not SyntheticKind.SHIFTED_BLOBS
                and self.class_spacing != SyntheticSpec.class_spacing):
            raise ConfigError(f"class_spacing is a shifted-blobs setting, which "
                              f"{self.kind.value} ignores; got {self.class_spacing!r}")
        if self.kind is SyntheticKind.ROTATED_MOONS:
            if self.classes != 2:
                raise ConfigError("rotated moons is a 2-class family")
            if not np.isscalar(self.shift):
                raise ConfigError(f"rotated moons read shift as an angle, a scalar; "
                                  f"got {self.shift!r}")
        _shift_vector(self.shift)


def _shift_vector(shift) -> np.ndarray:
    """A finite scalar offset s as (s, 0), or a finite 2-vector; else ConfigError."""
    if np.isscalar(shift):
        v = np.array([float(shift), 0.0])
    else:
        v = np.asarray(shift, dtype=float)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise ConfigError(f"shift must be a finite scalar or vector with 2 entries, got {shift!r}")
    return v


def _class_means(classes: int, noise_sd: float, spacing: float = 6.0) -> np.ndarray:
    # circle placement with constant neighbour spacing (in noise-sd units)
    radius = 0.5 * spacing * noise_sd / math.sin(math.pi / classes)
    angles = 2.0 * math.pi * np.arange(classes) / classes
    return radius * np.vstack([np.cos(angles), np.sin(angles)])


def one_hot(labels, classes: int) -> np.ndarray:
    """(classes, n) indicator block of a vector of n labels, each an integer in
    [0, classes); otherwise an InputError names the bad label or type."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise InputError(f"labels must be a vector of integers in [0, {classes}), "
                         f"got a {labels.ndim}-d {labels.dtype} array")
    outside = (labels < 0) | (labels >= classes)
    if np.any(outside):
        raise InputError(f"label {labels[outside][0]} lies outside [0, {classes})")
    out = np.zeros((classes, labels.shape[0]))
    out[labels, np.arange(labels.shape[0])] = 1.0
    return out


def check_one_hot(ys: np.ndarray, name: str = "label"):
    """InputError naming the block unless every column of ys is one-hot."""
    if not np.all((ys == 0.0) | (ys == 1.0)):
        raise InputError(f"{name} block must be one-hot (entries 0 or 1)")
    if not np.all(ys.sum(axis=0) == 1.0):
        raise InputError(f"every {name} column must have exactly one 1")


def make_shifted_blobs(spec: SyntheticSpec) -> AdaptationDataset:
    """Gaussian class blobs; the target domain is translated by the shift.

    Per-class counts are exact.  Sources share the blob layout; the target
    draws from the same classes around mean + shift.
    """
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec.classes, spec.noise_sd, spec.class_spacing)
    m = spec.samples_per_class_per_domain
    shift = _shift_vector(spec.shift)

    def domain(offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cols, labels = [], []
        for c in range(spec.classes):
            mu = means[:, c] + offset
            cols.append(mu[:, None] + spec.noise_sd * rng.standard_normal((2, m)))
            labels.append(np.full(m, c))
        y = np.concatenate(labels)
        return np.hstack(cols), one_hot(y, spec.classes)

    sources = [domain(np.zeros(2)) for _ in range(spec.num_sources)]
    xt, yt = domain(shift)
    return AdaptationDataset(sources=sources, target=xt, target_truth=yt)


def make_rotated_moons(spec: SyntheticSpec) -> AdaptationDataset:
    """Two interleaved half-moons; the target domain is rotated by the angle."""
    rng = np.random.default_rng(spec.seed)
    m = spec.samples_per_class_per_domain
    pivot = np.array([0.5, 0.25])

    def domain(angle: float) -> tuple[np.ndarray, np.ndarray]:
        t0 = rng.uniform(0.0, math.pi, m)
        t1 = rng.uniform(0.0, math.pi, m)
        upper = np.vstack([np.cos(t0), np.sin(t0)])
        lower = np.vstack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        x = np.hstack([upper, lower]) + spec.noise_sd * rng.standard_normal((2, 2 * m))
        if angle != 0.0:
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            x = rot @ (x - pivot[:, None]) + pivot[:, None]
        y = np.concatenate([np.zeros(m, dtype=int), np.ones(m, dtype=int)])
        return x, one_hot(y, 2)

    sources = [domain(0.0) for _ in range(spec.num_sources)]
    xt, yt = domain(float(spec.shift))
    return AdaptationDataset(sources=sources, target=xt, target_truth=yt)


def chain_triple(n: int, seed: int, *, classes: int = 3, domains: int = 2,
                 shift: tuple[float, ...] | float = 0.0,
                 noise_sd: float = 0.5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature/label/domain triple with a known conditional structure.

    Domains differ in class priors, so features and domains are marginally
    dependent through the class.  With zero shift the feature law given the
    class is domain-free: features are conditionally independent of the
    domain given the class.  A non-zero shift adds the offset scaled by the
    domain index to every class mean, breaking that conditional independence.
    ``n``, ``classes``, ``domains`` and ``seed`` must be integers and ``noise_sd``
    positive and finite; otherwise a ConfigError names the argument.
    """
    for name, value in (("n", n), ("classes", classes), ("domains", domains), ("seed", seed)):
        check_integer(name, value)
    check_positive("noise_sd", noise_sd)
    if n < 2 * domains:
        raise ConfigError(f"need at least {2 * domains} samples")
    if classes < 2 or domains < 2:
        raise ConfigError("chain needs at least 2 classes and 2 domains")
    rng = np.random.default_rng(seed)
    means = _class_means(classes, noise_sd)
    shift_vec = _shift_vector(shift)
    # skewed priors: first domain favours low classes, last favours high ones
    ratios = 0.6 ** np.linspace(1.0, -1.0, domains)
    xs, ys, zs = [], [], []
    base, extra = divmod(n, domains)
    for d in range(domains):
        nd = base + (1 if d < extra else 0)
        prior = ratios[d] ** np.arange(classes)
        prior = prior / prior.sum()
        y = rng.choice(classes, size=nd, p=prior)
        x = (means[:, y] + float(d) * shift_vec[:, None]
             + noise_sd * rng.standard_normal((2, nd)))
        xs.append(x)
        ys.append(y)
        zs.append(np.full(nd, d))
    x = np.hstack(xs)
    y = one_hot(np.concatenate(ys), classes)
    z = one_hot(np.concatenate(zs), domains)
    return x, y, z


def make_conditional_chain(spec: SyntheticSpec) -> AdaptationDataset:
    """``chain_triple`` with classes * m samples in each of N + 1 domains.

    Domains 0..N-1 are the sources and domain N the target, labeled for
    evaluation.  The triple is ordered by domain, so column slices cut it.
    """
    domains = spec.num_sources + 1
    m = spec.classes * spec.samples_per_class_per_domain
    x, y, _ = chain_triple(domains * m, spec.seed, classes=spec.classes, domains=domains,
                           shift=spec.shift, noise_sd=spec.noise_sd)
    parts = [(x[:, d * m:(d + 1) * m], y[:, d * m:(d + 1) * m]) for d in range(domains)]
    xt, yt = parts.pop()
    return AdaptationDataset(sources=parts, target=xt, target_truth=yt)


def generate(spec: SyntheticSpec) -> AdaptationDataset:
    """The dataset of ``spec``'s family, from the generator this module names
    at call time, so a wrapper installed on the module attribute runs."""
    if spec.kind is SyntheticKind.SHIFTED_BLOBS:
        return make_shifted_blobs(spec)
    if spec.kind is SyntheticKind.ROTATED_MOONS:
        return make_rotated_moons(spec)
    return make_conditional_chain(spec)


def save_features(dataset: AdaptationDataset, path):
    """Write ``f0..f{d-1},label,domain`` rows; floats use full-precision repr.

    Sources come first (domains 0..N-1), then the target (domain N).  Target
    labels are the evaluation labels when present, else -1.
    """
    d = dataset.dim
    header = [f"f{i}" for i in range(d)] + ["label", "domain"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")

        def rows(x, labels, domain):
            for j in range(x.shape[1]):
                vals = [repr(float(v)) for v in x[:, j]]
                fh.write(",".join(vals + [str(labels[j]), str(domain)]) + "\n")

        for i, (x, y) in enumerate(dataset.sources):
            rows(x, y.argmax(axis=0), i)
        if dataset.target_truth is not None:
            t_labels = dataset.target_truth.argmax(axis=0)
        else:
            t_labels = np.full(dataset.n_target, -1)
        rows(dataset.target, t_labels, dataset.num_sources)


def load_features(path) -> AdaptationDataset:
    """Read a feature file written by ``save_features`` (or by hand).

    The highest domain id is the target; all lower ids must be present as
    sources.  Source rows need labels in [0, K); target rows carry either a
    full set of evaluation labels or -1 throughout.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ParseError("empty feature file")
    header = lines[0].split(",")
    if header[-1] != "domain":
        raise ParseError("missing 'domain' column (must be last)")
    if len(header) < 3 or header[-2] != "label":
        raise ParseError("missing 'label' column (must precede 'domain')")
    d = len(header) - 2
    expected = [f"f{i}" for i in range(d)]
    if header[:d] != expected:
        raise ParseError(f"feature columns must be f0..f{d - 1}, got {header[:d]}")

    feats, labels, domains = [], [], []
    for row_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != d + 2:
            raise ParseError(f"row {row_no}: expected {d + 2} fields, got {len(parts)}")
        try:
            feats.append([float(v) for v in parts[:d]])
            label = int(parts[d])
            domain = int(parts[d + 1])
        except ValueError as exc:
            raise ParseError(f"row {row_no}: {exc}") from exc
        if label < -1:
            raise ParseError(f"row {row_no}: label must be >= -1, got {label}")
        if domain < 0:
            raise ParseError(f"row {row_no}: domain must be >= 0, got {domain}")
        labels.append(label)
        domains.append(domain)
    if not feats:
        raise ParseError("feature file has a header but no rows")

    x = np.asarray(feats, dtype=float).T
    labels = np.asarray(labels)
    domains = np.asarray(domains)
    target_id = int(domains.max())
    if target_id < 1:
        raise ParseError("need at least one source domain and one target domain")
    present = set(np.unique(domains).tolist())
    missing = sorted(set(range(target_id + 1)) - present)
    if missing:
        raise ParseError(f"domain id(s) {missing} have no rows")

    labeled = labels[labels >= 0]
    if labeled.size == 0:
        raise ParseError("no labeled rows; source rows must carry labels")
    k = int(labeled.max()) + 1

    sources = []
    for i in range(target_id):
        sel = domains == i
        src_labels = labels[sel]
        if np.any(src_labels < 0):
            bad = int(np.flatnonzero(sel)[src_labels < 0][0])
            raise ParseError(f"row {bad + 2}: source rows must be labeled")
        sources.append((x[:, sel], one_hot(src_labels, k)))

    sel = domains == target_id
    t_labels = labels[sel]
    if np.all(t_labels >= 0):
        truth = one_hot(t_labels, k)
    elif np.all(t_labels < 0):
        truth = None
    else:
        raise ParseError("target labels must be all present or all -1")
    return AdaptationDataset(sources=sources, target=x[:, sel], target_truth=truth)
