"""The benchmark's workloads: inputs made from a seed, timed loops and checks.

adapt-cond-400 and adapt-ent-400 train on shifted blobs (4 classes x 50 per
domain, one source, n = 400) the way ``trainer.fit`` does: pretrain,
init_pseudo_labels, then per iteration adapt_epoch followed by
target_accuracy.  They differ only in beta1, so the entropy arm never reaches
the conditional term, its kernels or the Cholesky solver.

citest-chain-600 calls ``condadapt measure --stat cond --permutations 200``
in-process on chains that alternate between dependent and conditionally
independent (n = 600, where one n x n matrix outgrows a 2 MB L2).

Every end-to-end metric is defined on every workload.  An adapt run's job is
one fit and its step one adaptation iteration; a citest run's job is one
round over its fixed set of tests and its step one test (README.md).
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from condadapt import cli, data, trainer
from condadapt.model import ModelParams
from condadapt.trainer import AdaptationDataset, TrainConfig

import oracle
from tracing import Tracer, span_ms, unit_totals

ADAPT_BETA1 = {"adapt-cond-400": 5.0, "adapt-ent-400": 0.0}
CITEST = "citest-chain-600"
WORKLOADS = (*ADAPT_BETA1, CITEST)

ADAPT_EPOCHS = 20      # adaptation iterations per fit
FITS_PER_ROUND = 10    # (data, init) seed pairs; target_acc is their mean
TESTS_PER_ROUND = 8    # alternating chain-dep / chain-ci inputs
PERMUTATIONS = 200
CHAIN_PER_CLASS = 100  # 3 classes x 2 domains x 100 = 600 samples
CHAIN_N = 600
DETECT_LEVEL = 0.01
FALSE_ALARM_LEVEL = 0.05
ORACLE_RTOL = 1e-9


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str):
        self.failed += count
        self.problems.append(message)


def derived_seeds(seed: int, stream: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([stream, seed % 2 ** 63])
    return [int(s) for s in ss.generate_state(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _p50(values) -> float:
    return float(np.percentile(values, 50))


def _p90(values) -> float:
    return float(np.percentile(values, 90))


# ---------------------------------------------------------------- adaptation

@dataclass
class AdaptInput:
    spec: data.SyntheticSpec
    config: TrainConfig
    dataset: AdaptationDataset


@dataclass
class Fit:
    params: ModelParams | None = None
    accuracy: float | None = None
    seconds: float = 0.0
    epoch_s: list = field(default_factory=list)  # adapt_epoch + target_accuracy
    test_s: list = field(default_factory=list)   # target_accuracy alone
    nonfinite: int = 0


def blobs_spec(data_seed: int, per_class: int = 50) -> data.SyntheticSpec:
    return data.SyntheticSpec(kind=data.SyntheticKind.SHIFTED_BLOBS, classes=4,
                              samples_per_class_per_domain=per_class, shift=(1.25, 0.0),
                              noise_sd=0.5, num_sources=1, seed=data_seed,
                              class_spacing=4.5)


def train_config(beta1: float, init_seed: int) -> TrainConfig:
    return TrainConfig(beta1=beta1, beta2=5e-3, epsilon=1e-4, learning_rate=2e-3,
                       hidden_units=256, rep_dim=128, pretrain_epochs=200,
                       adapt_epochs=ADAPT_EPOCHS, seed=init_seed)


def adapt_inputs(workload: str, seed: int, count: int = FITS_PER_ROUND) -> list[AdaptInput]:
    beta1 = ADAPT_BETA1[workload]
    inputs = []
    for data_seed, init_seed in zip(derived_seeds(seed, 0, count),
                                    derived_seeds(seed, 1, count)):
        spec = blobs_spec(data_seed)
        inputs.append(AdaptInput(spec, train_config(beta1, init_seed),
                                 data.make_shifted_blobs(spec)))
    return inputs


def staged_fit(inp: AdaptInput, fit: Fit, span=lambda name: nullcontext()) -> Fit:
    """Drive one fit as ``trainer.fit`` does, timing every iteration.

    ``fit`` is filled in as the loop runs, so a caller that catches an
    exception still sees how many iterations completed.
    """
    ds, cfg = inp.dataset, inp.config
    start = perf_counter()
    params = trainer.init_params_for(ds, cfg)
    params, _ = trainer.pretrain(ds, cfg, params)
    trainer.init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    opt_state = trainer.AdamState.for_params(params)
    for _ in range(cfg.adapt_epochs):
        with span("bench.iteration"):
            t0 = perf_counter()
            params, losses = trainer.adapt_epoch(ds, cfg, params, opt_state)
            t1 = perf_counter()
            fit.accuracy = trainer.target_accuracy(params, ds)
            t2 = perf_counter()
        fit.epoch_s.append(t2 - t0)
        fit.test_s.append(t2 - t1)
        if not np.all(np.isfinite([losses.ce, losses.cond, losses.ent, losses.total])):
            fit.nonfinite += 1
    fit.params = params
    fit.seconds = perf_counter() - start
    return fit


def same_params(a: ModelParams, b: ModelParams) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a.arrays(), b.arrays()))


def measure_adapt(inputs: list[AdaptInput], seconds: float) -> Outcome:
    """Fit every input once, then keep cycling while a fit still fits in time."""
    out = Outcome()
    fits: list[tuple[int, Fit]] = []
    start = perf_counter()
    last = 0.0
    i = 0
    while i < len(inputs) or perf_counter() - start + last <= seconds:
        j = i % len(inputs)
        began = perf_counter()
        fit = Fit()
        try:
            staged_fit(inputs[j], fit)
        except Exception:  # a failed fit is a failed operation, not the end of the run
            out.attempted += len(fit.epoch_s) + 1
            out.fail(1, f"fit of input {j} raised:\n{traceback.format_exc()}")
        else:
            out.attempted += len(fit.epoch_s)
            fits.append((j, fit))
        last = perf_counter() - began
        i += 1
    rss = peak_rss_mb()

    first: dict[int, Fit] = {}
    for j, fit in fits:
        if fit.nonfinite:
            out.fail(fit.nonfinite, f"input {j}: {fit.nonfinite} iterations with non-finite losses")
        if j not in first:
            first[j] = fit
        elif not (same_params(fit.params, first[j].params)
                  and fit.accuracy == first[j].accuracy):
            out.fail(len(fit.epoch_s), f"input {j}: a repeated fit is not bit-identical")
    if len(first) < len(inputs):  # the failed fits are counted above
        out.problems.append("some inputs never completed a fit; no metrics")
        return out

    epoch_s = [t for _, f in fits for t in f.epoch_s]
    test_s = [t for _, f in fits for t in f.test_s]
    # A single evaluation (under 1 ms) takes one of two distinct times, in a
    # mix that changes from run to run; the median of per-fit means is
    # steadier than the median of single calls.
    fit_test_s = [statistics.fmean(f.test_s) for _, f in fits]
    out.metrics = {
        "fit_s": statistics.median(f.seconds for _, f in fits),
        "epoch_ms.p50": 1e3 * _p50(epoch_s),
        "epoch_ms.p90": 1e3 * _p90(epoch_s),
        "test_ms.p50": 1e3 * _p50(fit_test_s),
        "tests_per_s": len(test_s) / sum(epoch_s),
        "target_acc": statistics.fmean(f.accuracy for f in first.values()),
        "peak_rss_mb": rss,
    }
    return out


# --------------------------------------------------------- permutation tests

@dataclass(frozen=True)
class ChainTest:
    dependent: bool
    seed: int

    def argv(self, permutations: int = PERMUTATIONS) -> list[str]:
        family = "chain-dep" if self.dependent else "chain-ci"
        return ["measure", "--synthetic", family, "--per-class", str(CHAIN_PER_CLASS),
                "--stat", "cond", "--permutations", str(permutations),
                "--epsilon", str(CHAIN_N ** -0.25), "--seed", str(self.seed)]

    def triple(self):
        """The chain the CLI generates: chain-dep shifts by 2 x noise_sd."""
        return data.chain_triple(CHAIN_N, self.seed, classes=3, domains=2,
                                 shift=1.0 if self.dependent else 0.0, noise_sd=0.5)


def citest_inputs(seed: int) -> list[ChainTest]:
    seeds = derived_seeds(seed, 2, TESTS_PER_ROUND)
    return [ChainTest(j % 2 == 0, s) for j, s in enumerate(seeds)]


def run_test(test: ChainTest, permutations: int = PERMUTATIONS) -> tuple[dict, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        code = cli.main(test.argv(permutations))
    seconds = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"condadapt {' '.join(test.argv(permutations))} exited {code}")
    return json.loads(buf.getvalue())["results"], seconds


def check_tests(tests: list[ChainTest], results: dict[int, dict], out: Outcome,
                runs_per_input: dict[int, int]):
    """Statistic against the dense oracle, p-value range, sample count."""
    for j, res in results.items():
        test = tests[j]
        x, y, z = test.triple()
        expected = oracle.cond_statistic(x, y, z, CHAIN_N ** -0.25)
        rel = abs(res["statistic"] - expected) / abs(expected)
        problems = []
        if not rel <= ORACLE_RTOL:
            problems.append(f"statistic {res['statistic']!r} vs oracle {expected!r} "
                            f"(relative error {rel:.3g})")
        if not 0.0 < res["pvalue"] <= 1.0:
            problems.append(f"p-value {res['pvalue']!r} outside (0, 1]")
        if res["n"] != CHAIN_N:
            problems.append(f"n = {res['n']}, expected {CHAIN_N}")
        if problems:
            out.fail(runs_per_input[j], f"test {j} (seed {test.seed}): " + "; ".join(problems))


def decisions(tests: list[ChainTest], results: dict[int, dict]) -> dict:
    detections = sum(results[j]["pvalue"] <= DETECT_LEVEL
                     for j, t in enumerate(tests) if t.dependent)
    kept_ci = sum(results[j]["pvalue"] > DETECT_LEVEL
                  for j, t in enumerate(tests) if not t.dependent)
    false_alarms = sum(results[j]["pvalue"] <= FALSE_ALARM_LEVEL
                       for j, t in enumerate(tests) if not t.dependent)
    return {"accuracy": (detections + kept_ci) / len(tests),
            "detections": detections, "false_alarms": false_alarms}


def measure_citest(tests: list[ChainTest], seconds: float) -> Outcome:
    """Run whole rounds over the fixed tests while a round still fits in time."""
    out = Outcome()
    first: dict[int, dict] = {}
    runs = {j: 0 for j in range(len(tests))}
    test_s, round_s = [], []
    start = perf_counter()
    while not round_s or perf_counter() - start + round_s[-1] <= seconds:
        began = perf_counter()
        for j, test in enumerate(tests):
            out.attempted += 1
            runs[j] += 1
            try:
                res, secs = run_test(test)
            except Exception:  # a failed test is a failed operation, not the end of the run
                out.fail(1, f"test {j} raised:\n{traceback.format_exc()}")
                continue
            test_s.append(secs)
            if j not in first:
                first[j] = res
            elif (res["statistic"], res["pvalue"]) != (first[j]["statistic"], first[j]["pvalue"]):
                out.fail(1, f"test {j}: a repeated test gave a different result")
        round_s.append(perf_counter() - began)
    rss = peak_rss_mb()  # before the oracle's matrices

    check_tests(tests, first, out, runs)
    if len(first) < len(tests):  # the failed tests are counted above
        out.problems.append("some tests never completed; no metrics")
        return out
    out.metrics = {
        "fit_s": statistics.median(round_s),
        "epoch_ms.p50": 1e3 * _p50(test_s),
        "epoch_ms.p90": 1e3 * _p90(test_s),
        "test_ms.p50": 1e3 * _p50(test_s),
        "tests_per_s": len(test_s) / sum(test_s),
        "target_acc": decisions(tests, first)["accuracy"],
        "peak_rss_mb": rss,
    }
    return out


# ------------------------------------------------------------------ entry

def setup(workload: str, seed: int):
    if workload == CITEST:
        return citest_inputs(seed)
    return adapt_inputs(workload, seed)


def measure(workload: str, inputs, seconds: float) -> Outcome:
    if workload == CITEST:
        return measure_citest(inputs, seconds)
    return measure_adapt(inputs, seconds)


# ------------------------------------------------------------------ tracing

# span name -> totals reported as "<span>.<total>", divided by the number of
# iterations (adapt) or tests (citest)
LAYER_TOTALS = {
    "solver.cholesky": ("calls", "ms"),
    "solver.solve": ("calls", "rhs_cols", "ms"),
    "kernels.dist": ("calls", "ms"),
    "kernels.bandwidth": ("calls", "ms"),
    "kernels.gram": ("calls", "ms"),
    "kernels.label_gram": ("ms",),
    "kernels.product_gram": ("ms",),
    "kernels.center": ("calls", "ms"),
    "kernels.normalize": ("calls", "ms"),
    "gradients.cond_objective": ("calls", "ms", "self_ms"),
    "measures.cond": ("ms", "self_ms", "replicates"),
    "model.forward": ("calls", "ms"),
    "model.backward": ("ms",),
    "trainer.adam_step": ("ms",),
    "trainer.target_accuracy": ("ms",),
    "trainer.adapt_epoch": ("self_ms",),
    "cli": ("self_ms",),
}


def layer_metrics(tracer: Tracer, unit: str) -> dict:
    units, totals = unit_totals(tracer.spans, unit)
    metrics = {f"{span}.{key}": totals[span][key] / units
               for span, keys in LAYER_TOTALS.items() for key in keys}
    flops = totals["solver.cholesky"]["flops"] + totals["solver.solve"]["flops"]
    metrics["solver.flops_computed"] = flops / units
    for name in ("trainer.pretrain", "data.generate"):  # per call, not per unit
        durations = span_ms(tracer.spans, name)
        metrics[f"{name}.ms"] = statistics.median(durations) if durations else 0.0
    return metrics


def trace_adapt(workload: str, seed: int, spans_path) -> Outcome:
    inp = adapt_inputs(workload, seed, count=1)[0]
    # trainer.fit first, so the reference is not the process's cold first fit
    fitted, _ = trainer.fit(inp.dataset, inp.config)
    reference = staged_fit(inp, Fit())
    out = Outcome(attempted=len(reference.epoch_s))
    if not same_params(fitted, reference.params):
        out.fail(len(reference.epoch_s), "staged loop is not bit-identical to trainer.fit")

    with Tracer() as tracer:
        dataset = data.make_shifted_blobs(inp.spec)
        traced = staged_fit(AdaptInput(inp.spec, inp.config, dataset), Fit(), tracer.span)
    tracer.write(spans_path, workload=workload, seed=seed)
    out.attempted += len(traced.epoch_s)
    if not (same_params(traced.params, reference.params)
            and traced.accuracy == reference.accuracy):
        out.fail(len(traced.epoch_s), "traced fit is not bit-identical to the untraced fit")
    if reference.nonfinite or traced.nonfinite:
        out.fail(reference.nonfinite + traced.nonfinite, "non-finite loss terms")

    out.metrics = layer_metrics(tracer, "bench.iteration")
    out.metrics.update({
        "measures.perm_replicate_ms": 0.0,
        "measures.detections_1pct": 0,
        "measures.false_alarms_5pct": 0,
        "trace.overhead_pct": 100.0 * (_p50(traced.epoch_s) / _p50(reference.epoch_s) - 1.0),
    })
    return out


def trace_citest(seed: int, spans_path) -> Outcome:
    tests = citest_inputs(seed)
    out = Outcome(attempted=2 * len(tests))
    tracer = Tracer()
    reference, traced = [], []
    for test in tests:  # interleaved, so drift in machine speed hits both alike
        reference.append(run_test(test))
        with tracer, tracer.span("bench.test"):
            traced.append(run_test(test))
    tracer.write(spans_path, workload=CITEST, seed=seed)
    for j, ((ref, _), (res, _)) in enumerate(zip(reference, traced)):
        if (ref["statistic"], ref["pvalue"]) != (res["statistic"], res["pvalue"]):
            out.fail(1, f"test {j}: traced result differs from the untraced one")
    results = {j: res for j, (res, _) in enumerate(reference)}
    check_tests(tests, results, out, {j: 2 for j in results})

    # one replicate, from outside: (time with 200 permutations - with 0) / 200
    with_perms, without = [], []
    for _ in range(3):
        with_perms.append(run_test(tests[0])[1])
        without.append(run_test(tests[0], permutations=0)[1])
    counts = decisions(tests, results)
    out.metrics = layer_metrics(tracer, "bench.test")
    out.metrics.update({
        "measures.perm_replicate_ms":
            1e3 * (statistics.median(with_perms) - statistics.median(without)) / PERMUTATIONS,
        "measures.detections_1pct": counts["detections"],
        "measures.false_alarms_5pct": counts["false_alarms"],
        "trace.overhead_pct": 100.0 * (_p50([s for _, s in traced])
                                       / _p50([s for _, s in reference]) - 1.0),
    })
    return out


def trace(workload: str, seed: int, spans_path) -> Outcome:
    if workload == CITEST:
        return trace_citest(seed, spans_path)
    return trace_adapt(workload, seed, spans_path)
