"""Stage timings at n in {400, 800, 2000}, for the traced run.

Inputs at size n are shifted blobs with n/8 samples per class per domain
(n pooled), an untrained network of the adapt workloads' shape, and its
representation of the pooled features.  Each stage is the median of a few
calls; ``measures.perm_replicate`` is derived from outside as
(time with P permutations - time with 0) / P.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from condadapt import data, gradients, kernels, measures, model, trainer

from workloads import blobs_spec, derived_seeds, train_config

SIZES = (400, 800, 2000)
REPEATS = {400: 5, 800: 3, 2000: 1}
EPSILON = 1e-4
SWEEP_PERMUTATIONS = 20


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def stages(n: int, seed: int) -> dict:
    """Stage name -> zero-argument callable running that stage at size n."""
    data_seed, init_seed = derived_seeds(seed, 3, 2)
    ds = data.make_shifted_blobs(blobs_spec(data_seed, per_class=n // 8))
    cfg = train_config(5.0, init_seed)
    params = trainer.init_params_for(ds, cfg)
    x = ds.features
    state = model.forward_pass(params, x)
    xre = state.xre
    y = np.hstack([ds.source_labels, ds.target_truth])
    z = ds.domain_matrix
    x_cfg = kernels.KernelConfig.from_data(xre)
    kx = kernels.gram(xre, x_cfg)
    ky = kernels.label_gram(y)
    kxt = kernels.product_gram(kx, ky)
    kzt = kernels.product_gram(kernels.label_gram(z), ky)
    labels = y.argmax(axis=0)
    cfgs = gradients.CondKernelConfig.resolve(xre, y, z)
    dlogits = state.probs - y
    dxre = np.full_like(xre, 1e-3)  # backward's cost does not depend on the values
    grads = model.backward_pass(params, state, dlogits, dxre)
    stepped = params.copy()
    adam = trainer.AdamState.for_params(stepped)

    def cond_test(permutations):
        return lambda: measures.cond(kxt, kzt, ky, EPSILON, labels=labels,
                                     permutations=permutations, seed=seed)

    return {
        "kernels.gram": lambda: kernels.gram(xre, x_cfg),
        "kernels.center_normalize": lambda: kernels.normalize(kernels.center(kxt), EPSILON),
        "gradients.cond_objective": lambda: gradients.cond_objective(xre, y, z, cfgs, EPSILON),
        "model.forward": lambda: model.forward_pass(params, x),
        "model.backward": lambda: model.backward_pass(params, state, dlogits, dxre),
        "trainer.adam_step": lambda: trainer.adam_step(stepped, grads, adam,
                                                       cfg.learning_rate, cfg.adam),
        "trainer.init_pseudo_labels": lambda: trainer.init_pseudo_labels(ds, params),
        "measures.cond.perms": cond_test(SWEEP_PERMUTATIONS),
        "measures.cond.no_perms": cond_test(0),
    }


def sweep(seed: int) -> dict:
    metrics = {}
    for n in SIZES:
        ms = {name: _median_ms(fn, REPEATS[n]) for name, fn in stages(n, seed).items()}
        replicate = (ms.pop("measures.cond.perms") - ms.pop("measures.cond.no_perms"))
        ms["measures.perm_replicate"] = replicate / SWEEP_PERMUTATIONS
        metrics.update({f"{name}.ms.n{n}": value for name, value in ms.items()})
    return metrics


def cond_objective_ms(seed: int) -> float:
    """The n = 400 ``gradients.cond_objective`` stage, for a run with more threads."""
    return _median_ms(stages(400, seed)["gradients.cond_objective"], REPEATS[400])
