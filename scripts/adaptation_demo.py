"""Shifted-blobs adaptation demo.

Trains three arms per trial (plain source CE, entropy-only, full objective)
and reports target accuracy plus before/after alignment of the learned
representation.  Defaults are sized to finish in about a minute; raise
--trials / --adapt-epochs for tighter estimates.
"""

import argparse
import sys

import numpy as np

from condadapt.data import SyntheticKind, SyntheticSpec, make_shifted_blobs
from condadapt.measures import a_distance, mmd
from condadapt.model import forward_pass
from condadapt.trainer import TrainConfig, fit, init_params_for, pretrain, target_accuracy

ARMS = {"baseline": (0.0, 0.0), "entropy-only": (0.0, 5e-3), "full": (5.0, 5e-3)}


def make_dataset(args, seed):
    spec = SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS, classes=args.classes,
                         samples_per_class_per_domain=args.per_class,
                         shift=(args.shift, 0.0), noise_sd=args.noise_sd,
                         seed=seed, class_spacing=args.class_spacing)
    return make_shifted_blobs(spec)


def alignment(params, ds):
    feats = forward_pass(params, ds.features).xre
    src, tgt = feats[:, : ds.n_source], feats[:, ds.n_source:]
    ys = ds.source_labels.argmax(axis=0)
    yt = ds.target_truth.argmax(axis=0)
    reps = [a_distance(src, tgt, split_seed=s, labels_s=ys, labels_t=yt)
            for s in range(3)]
    d_a = float(np.mean([np.mean([v for _, v in r.per_class]) for r in reps]))
    d_mmd = float(np.mean([mmd(src[:, ys == k], tgt[:, yt == k])
                           for k in range(ds.classes)]))
    return d_a, d_mmd


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--per-class", type=int, default=50)
    ap.add_argument("--shift", type=float, default=1.25)
    ap.add_argument("--noise-sd", type=float, default=0.5)
    ap.add_argument("--class-spacing", type=float, default=4.5)
    ap.add_argument("--pretrain-epochs", type=int, default=200)
    ap.add_argument("--adapt-epochs", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    acc = {arm: [] for arm in ARMS}
    align = {"before": [], "after": []}
    for trial in range(args.trials):
        seed = args.seed + trial
        pretrained = None  # the arms differ only in loss weights, so they share it
        for arm, (b1, b2) in ARMS.items():
            ds = make_dataset(args, seed)
            cfg = TrainConfig(beta1=b1, beta2=b2, epsilon=1e-4,
                              pretrain_epochs=args.pretrain_epochs,
                              adapt_epochs=args.adapt_epochs,
                              learning_rate=2e-3, seed=seed,
                              hidden_units=256, rep_dim=128)
            if pretrained is None:
                pretrained = pretrain(ds, cfg, init_params_for(ds, cfg))
            if arm == "full":
                align["before"].append(alignment(pretrained[0], ds))
            params, _ = fit(ds, cfg, pretrained)
            acc[arm].append(target_accuracy(params, ds))
            if arm == "full":
                align["after"].append(alignment(params, ds))
        print(f"trial {trial}: " + "  ".join(
            f"{arm}={acc[arm][-1]:.3f}" for arm in ARMS))

    print()
    for arm in ARMS:
        vals = acc[arm]
        print(f"{arm:>13s}: mean target accuracy {np.mean(vals):.3f} "
              f"(sd {np.std(vals):.3f}, {args.trials} trials)")
    lift = np.mean(acc["full"]) - np.mean(acc["baseline"])
    print(f"{'lift':>13s}: {lift:+.3f} over baseline")

    before = np.mean(align["before"], axis=0)
    after = np.mean(align["after"], axis=0)
    print(f"\nfull-arm representation alignment (lower is better):")
    print(f"  class-conditional discriminator distance: "
          f"{before[0]:.3f} -> {after[0]:.3f}")
    print(f"  per-class squared discrepancy:            "
          f"{before[1]:.4f} -> {after[1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
