"""Behavior of the conditional dependence statistic on the chain family.

Two quick studies:
  1. statistic size versus sample count under true conditional independence
     (the estimate should shrink as n grows when epsilon follows n^-0.25);
  2. permutation-test p-values on a conditionally independent chain versus
     one whose class means are offset per domain.
"""

import argparse
import sys

import numpy as np

from condadapt.data import chain_triple
from condadapt.measures import cond_from_features, convergence_probe


def trend(sizes, repeats, rate):
    print(f"statistic vs n (epsilon = n^-{rate:g}, median of {repeats} repeats)")
    gen = lambda n, seed: chain_triple(n, seed, classes=2, domains=2,
                                       shift=0.0, noise_sd=0.5)
    runs = [convergence_probe(gen, sizes, lambda n: float(n) ** -rate, seed=seed)
            for seed in range(repeats)]
    for i, n in enumerate(sizes):
        eps = float(n) ** -rate
        vals = [run[i][1] for run in runs]
        print(f"  n={n:5d}  eps={eps:.4f}  median={np.median(vals):.5f}  "
              f"iqr=({np.percentile(vals, 25):.5f}, {np.percentile(vals, 75):.5f})")


def power(n, permutations, seeds):
    print(f"\npermutation test, n={n}, {permutations} shuffles, {seeds} seeds")
    for label, shift in (("conditionally independent", 0.0),
                         ("domain-shifted (2 sd)", 1.0)):
        pvals = []
        for seed in range(seeds):
            x, y, z = chain_triple(n, seed, classes=3, domains=2,
                                   shift=shift, noise_sd=0.5)
            rep = cond_from_features(x, y, z, n ** -0.25,
                                     labels=y.argmax(axis=0),
                                     permutations=permutations,
                                     seed=seed * 1000)
            pvals.append(rep.permutation_pvalue)
        frac = np.mean([p <= 0.05 for p in pvals])
        print(f"  {label:>26s}: median p={np.median(pvals):.3f}, "
              f"rejections at 5%: {frac:.0%}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="100,400,1600",
                    help="comma-separated sample counts for the trend study")
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--rate", type=float, default=0.25,
                    help="epsilon decay exponent; a rate of 1/3 or more breaks "
                         "eps^3 * n -> infinity, and the probe warns")
    ap.add_argument("--test-n", type=int, default=600)
    ap.add_argument("--permutations", type=int, default=200)
    ap.add_argument("--test-seeds", type=int, default=10)
    args = ap.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    trend(sizes, args.repeats, args.rate)
    power(args.test_n, args.permutations, args.test_seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
