"""Command-line front end: measure statistics, train adaptation, sweep weights.

Reports are JSON with sorted keys, so identical runs produce identical bytes
apart from the wall-time field.  Exit codes: 0 success, 1 data or numerical
failure, 2 usage error.  Relative ``--out`` paths are resolved against
``CONDADAPT_OUTDIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import data as data_mod
from . import measures
from .errors import ConfigError, DegenerateDataError, InputError, NumericalError, ParseError
from .model import forward_pass, save_params
from .trainer import TrainConfig, fit, init_params_for, pretrain, target_accuracy

_DATA_ERRORS = (InputError, ConfigError, DegenerateDataError, NumericalError,
                ParseError, OSError)

# CLI family -> (kind, default classes, default shift): an offset in noise-sd
# units for blobs and chains, an angle in radians for the moons
_FAMILIES = {
    "shifted-blobs": (data_mod.SyntheticKind.SHIFTED_BLOBS, 4, 2.5),
    "rotated-moons": (data_mod.SyntheticKind.ROTATED_MOONS, 2, 1.25),
    "chain-ci": (data_mod.SyntheticKind.CONDITIONAL_CHAIN, 3, 0.0),
    "chain-dep": (data_mod.SyntheticKind.CONDITIONAL_CHAIN, 3, 2.0),
}


def _add_data_flags(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="feature file (f0..fD,label,domain)")
    src.add_argument("--synthetic", choices=sorted(_FAMILIES),
                     help="generate a synthetic scenario instead of reading a file")
    p.add_argument("--classes", type=int, default=None,
                   help="classes for synthetic data (family default)")
    p.add_argument("--per-class", type=int, default=50,
                   help="samples per class per domain for synthetic data")
    p.add_argument("--noise-sd", type=float, default=0.5)
    p.add_argument("--shift", type=float, default=None,
                   help="target offset (blobs/chain-dep) or rotation angle (moons)")
    p.add_argument("--sources", type=int, default=1, help="number of source domains")
    p.add_argument("--seed", type=int, default=0)


def _add_out_flag(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None,
                   help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condadapt",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="compute a dependence or alignment statistic")
    _add_data_flags(m)
    m.add_argument("--stat", required=True,
                   choices=["nocco", "cond", "per-class-nocco", "mmd", "a-distance"])
    m.add_argument("--epsilon", type=float, default=1e-4)
    m.add_argument("--permutations", type=int, default=0)
    _add_out_flag(m)

    t = sub.add_parser("train", help="run the adaptation trainer")
    _add_data_flags(t)
    _add_train_flags(t)
    t.add_argument("--trials", type=int, default=1)
    t.add_argument("--baseline", action="store_true",
                   help="also run beta1=beta2=0 with the same trial seeds")
    t.add_argument("--model-out", default=None,
                   help="save the first trial's parameters here")
    _add_out_flag(t)

    s = sub.add_parser("sweep", help="grid-sweep the loss weights")
    _add_data_flags(s)
    _add_train_flags(s)
    s.add_argument("--trials", type=int, default=1, help="fits per grid cell")
    s.add_argument("--beta1-grid", required=True, help="comma-separated values")
    s.add_argument("--beta2-grid", required=True, help="comma-separated values")
    s.add_argument("--epsilon-grid", default=None,
                   help="optional comma-separated epsilon values")
    _add_out_flag(s)
    return parser


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--beta1", type=float, default=1e-2)
    p.add_argument("--beta2", type=float, default=5e-3)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--pretrain-epochs", type=int, default=100)
    p.add_argument("--adapt-epochs", type=int, default=100)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--rep-dim", type=int, default=512)


def _dataset_from_args(args, seed: int) -> data_mod.AdaptationDataset:
    if args.input is not None:
        return data_mod.load_features(args.input)
    kind, classes, shift = _FAMILIES[args.synthetic]
    if kind is not data_mod.SyntheticKind.ROTATED_MOONS:
        shift *= args.noise_sd
    return data_mod.generate(data_mod.SyntheticSpec(
        kind=kind, classes=classes if args.classes is None else args.classes,
        samples_per_class_per_domain=args.per_class,
        shift=shift if args.shift is None else args.shift,
        noise_sd=args.noise_sd, num_sources=args.sources, seed=seed))


def _cmd_measure(args, parser) -> dict:
    ds = _dataset_from_args(args, args.seed)
    x, z = ds.features, ds.domain_matrix
    eps, perms = args.epsilon, args.permutations
    if args.stat == "nocco":
        rep = measures.nocco_from_features(x, z, eps, permutations=perms, seed=args.seed)
        return _dependence_dict(rep)
    if args.stat in ("cond", "per-class-nocco"):
        if ds.target_truth is None:
            raise InputError(f"--stat {args.stat} needs labels for every sample "
                             "(target rows are unlabeled)")
        y = np.hstack([ds.source_labels, ds.target_truth])
        labels = y.argmax(axis=0)
        if args.stat == "cond":
            rep = measures.cond_from_features(x, y, z, eps, labels=labels,
                                              permutations=perms, seed=args.seed)
        else:
            rep = measures.per_class_nocco_from_features(x, z, labels, eps,
                                                         permutations=perms,
                                                         seed=args.seed)
        return _dependence_dict(rep)
    if args.stat == "mmd":
        return {"statistic": measures.mmd(ds.source_features, ds.target), "kind": "mmd",
                "n": int(x.shape[1])}
    labels_s = labels_t = None
    if ds.target_truth is not None:
        labels_s = ds.source_labels.argmax(axis=0)
        labels_t = ds.target_truth.argmax(axis=0)
    rep = measures.a_distance(ds.source_features, ds.target, split_seed=args.seed,
                              labels_s=labels_s, labels_t=labels_t)
    out = {"kind": "a-distance", "d_a": rep.d_a,
           "classifier_test_error": rep.classifier_test_error}
    if rep.per_class is not None:
        out["per_class"] = [[c, v] for c, v in rep.per_class]
        out["skipped_classes"] = rep.skipped_classes
    return out


def _dependence_dict(rep: measures.DependenceReport) -> dict:
    out = {"statistic": rep.statistic, "kind": rep.kind.value, "n": rep.n,
           "epsilon": rep.epsilon}
    if rep.permutation_pvalue is not None:
        out["pvalue"] = rep.permutation_pvalue
    if rep.skipped_classes:
        out["skipped_classes"] = rep.skipped_classes
    return out


def _train_config(args, seed: int, **weights) -> TrainConfig:
    """The flags' config, with an arm's loss ``weights`` in place of the flags'."""
    return TrainConfig(
        **{"beta1": args.beta1, "beta2": args.beta2, "epsilon": args.epsilon, **weights},
        pretrain_epochs=args.pretrain_epochs,
        adapt_epochs=args.adapt_epochs,
        learning_rate=args.lr,
        seed=seed,
        hidden_units=args.hidden,
        rep_dim=args.rep_dim,
    )


def _trial_seeds(args, parser) -> list[int]:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    return [args.seed + t for t in range(args.trials)]


def _run_trials(args, parser, pretrained: dict, **weights):
    """Fit once per trial seed (also the data seed, for synthetics) and collect
    accuracies; every call runs the same seeds, so its arms are paired.  Arms
    share ``pretrained`` (seed -> pretraining), which reads no loss weight."""
    results = []
    for seed in _trial_seeds(args, parser):
        ds = _dataset_from_args(args, seed)
        cfg = _train_config(args, seed, **weights)
        if seed not in pretrained:
            pretrained[seed] = pretrain(ds, cfg, init_params_for(ds, cfg))
        params, _ = fit(ds, cfg, pretrained[seed])
        results.append((params, ds, target_accuracy(params, ds)))
    return results


def _mean_stderr(values) -> tuple[float | None, float | None]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, stderr


def _cmd_train(args, parser) -> dict:
    pretrained: dict = {}
    runs = _run_trials(args, parser, pretrained)
    accs = [acc for _, _, acc in runs]
    mean, stderr = _mean_stderr(accs)
    results: dict = {"per_trial_accuracy": accs, "accuracy_mean": mean,
                     "accuracy_stderr": stderr}
    if args.baseline:
        base = _run_trials(args, parser, pretrained, beta1=0.0, beta2=0.0)
        b_accs = [acc for _, _, acc in base]
        b_mean, b_stderr = _mean_stderr(b_accs)
        deltas = [None if (a is None or b is None) else a - b
                  for a, b in zip(accs, b_accs)]
        results["baseline"] = {"per_trial_accuracy": b_accs, "accuracy_mean": b_mean,
                               "accuracy_stderr": b_stderr, "per_trial_delta": deltas}
    if args.model_out is not None:
        save_params(runs[0][0], _resolve_out(args.model_out))
        results["model_file"] = args.model_out
    _human_lines(["trial accuracies: " + ", ".join("-" if a is None else f"{a:.4f}"
                                                   for a in accs),
                  f"mean accuracy: {'-' if mean is None else f'{mean:.4f}'}"])
    return results


def _parse_grid(text: str, name: str, parser) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        vals = []
    if not vals:
        parser.error(f"{name} must be a non-empty comma-separated list of numbers")
    return vals


def _cmd_sweep(args, parser) -> dict:
    b1s = _parse_grid(args.beta1_grid, "--beta1-grid", parser)
    b2s = _parse_grid(args.beta2_grid, "--beta2-grid", parser)
    eps_grid = ([args.epsilon] if args.epsilon_grid is None
                else _parse_grid(args.epsilon_grid, "--epsilon-grid", parser))
    cells = sorted((b1, b2, e) for b1 in b1s for b2 in b2s for e in eps_grid)
    rows, pretrained = [], {}
    for b1, b2, eps in cells:
        runs = _run_trials(args, parser, pretrained, beta1=b1, beta2=b2, epsilon=eps)
        mean, stderr = _mean_stderr([acc for _, _, acc in runs])
        params, ds, _ = runs[0]
        rows.append({"beta1": b1, "beta2": b2, "epsilon": eps,
                     "accuracy_mean": mean, "accuracy_stderr": stderr,
                     **_alignment_stats(params, ds, eps)})
    _human_lines([f"b1={r['beta1']:g} b2={r['beta2']:g} eps={r['epsilon']:g} "
                  f"acc={r['accuracy_mean']}" for r in rows])
    return {"rows": rows, "cells": len(rows),
            "trial_seeds": _trial_seeds(args, parser)}


def _alignment_stats(params, ds: data_mod.AdaptationDataset, epsilon: float) -> dict:
    """Dependence between the learned representation and the domain."""
    xre = forward_pass(params, ds.features).xre
    z = ds.domain_matrix
    stats = {"rep_nocco": measures.nocco_from_features(xre, z, epsilon).statistic}
    y = ds.pseudo_labels if ds.target_truth is None else ds.target_truth
    y = np.hstack([ds.source_labels, y])
    stats["rep_per_class_nocco"] = measures.per_class_nocco_from_features(
        xre, z, y.argmax(axis=0), epsilon).statistic
    stats["rep_cond"] = measures.cond_from_features(xre, y, z, epsilon).statistic
    return stats


def _human_lines(lines):
    for ln in lines:
        print(ln, file=sys.stderr)


def _resolve_out(path: str) -> str:
    outdir = os.environ.get("CONDADAPT_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path is None:
        print(text)
    else:
        with open(_resolve_out(out_path), "w") as fh:
            fh.write(text + "\n")


def _config_snapshot(args) -> dict:
    skip = {"command", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    handlers = {"measure": _cmd_measure, "train": _cmd_train, "sweep": _cmd_sweep}
    try:
        results = handlers[args.command](args, parser)
    except _DATA_ERRORS as exc:
        print(f"condadapt {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": list(argv) if argv is not None else sys.argv[1:],
        "config": _config_snapshot(args),
        "results": results,
        "seed": args.seed,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
