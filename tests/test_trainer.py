import numpy as np
import pytest

from condadapt import trainer
from condadapt.data import SyntheticKind, SyntheticSpec, make_shifted_blobs, one_hot
from condadapt.errors import ConfigError, InputError, NumericalError
from condadapt.gradients import CondKernelConfig, cond_objective
from condadapt.model import (
    LossBreakdown,
    ModelParams,
    backward_pass,
    entropy_grad_wrt_logits,
    forward_pass,
    init_params,
    loss_ce,
    loss_entropy,
)
from condadapt.trainer import (
    AdamConfig,
    AdamState,
    AdaptationDataset,
    PseudoLabelMode,
    TrainConfig,
    adam_step,
    adapt_epoch,
    fit,
    init_params_for,
    init_pseudo_labels,
    pretrain,
    target_accuracy,
)
from support import params_equal


def separable_dataset(seed=0, n_per=30, gap=8.0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(2, n_per)) - gap / 2
    x1 = rng.normal(size=(2, n_per)) + gap / 2
    xs = np.hstack([x0, x1])
    ys = one_hot(np.repeat([0, 1], n_per), 2)
    xt = np.hstack([rng.normal(size=(2, n_per)) - gap / 2 + 1.0,
                    rng.normal(size=(2, n_per)) + gap / 2 + 1.0])
    truth = one_hot(np.repeat([0, 1], n_per), 2)
    return AdaptationDataset(sources=[(xs, ys)], target=xt, target_truth=truth)


def blob_dataset(seed=0, shift=(1.0, 0.0)):
    spec = SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS, classes=2,
                         samples_per_class_per_domain=25, shift=shift,
                         noise_sd=0.5, seed=seed, class_spacing=5.0)
    return make_shifted_blobs(spec)


def quick_config(**kw):
    defaults = dict(beta1=0.0, beta2=0.0, pretrain_epochs=30, adapt_epochs=10,
                    learning_rate=1e-2, seed=0, hidden_units=16, rep_dim=8)
    defaults.update(kw)
    return TrainConfig(**defaults)


# config and dataset validation


def test_config_rejects_invalid_values():
    with pytest.raises(ConfigError):
        quick_config(beta1=-0.1)
    with pytest.raises(ConfigError):
        quick_config(epsilon=0.0)
    with pytest.raises(ConfigError):
        quick_config(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        quick_config(pretrain_epochs=-1)


@pytest.mark.parametrize("field,value", [("beta1", float("nan")), ("beta2", float("inf")),
                                         ("learning_rate", float("inf")),
                                         ("epsilon", float("inf"))])
def test_config_rejects_non_finite_values_by_name(field, value):
    with pytest.raises(ConfigError, match=field):
        quick_config(**{field: value})


@pytest.mark.parametrize("field,value", [("beta1", float("nan")), ("beta1", 1.0),
                                         ("beta2", -0.1), ("beta2", float("inf")),
                                         ("eps", -1.0), ("eps", 0.0), ("eps", float("nan"))])
def test_adam_config_rejects_invalid_values_by_name(field, value):
    with pytest.raises(ConfigError, match=f"AdamConfig.{field}"):
        AdamConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("seed", -1), ("seed", 1.0), ("hidden_units", 0),
                                         ("hidden_units", 2.5), ("rep_dim", 0),
                                         ("adapt_epochs", 1.5), ("pretrain_epochs", -1)])
def test_config_rejects_a_bad_integer_by_name(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        quick_config(**{field: value})


def test_adam_settings_are_a_fixed_constant():
    assert TrainConfig().adam == AdamConfig()
    with pytest.raises(TypeError):
        TrainConfig(adam=AdamConfig())


@pytest.mark.parametrize("where", ["source", "target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_dataset_rejects_non_finite_values_by_name(where, value):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    xt = rng.normal(size=(2, 5))
    (xs if where == "source" else xt)[1, 3] = value
    with pytest.raises(InputError, match=f"{where}.*non-finite"):
        AdaptationDataset(sources=[(xs, ys)], target=xt)


def test_dataset_validation():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    with pytest.raises(InputError):
        AdaptationDataset(sources=[], target=rng.normal(size=(2, 5)))
    with pytest.raises(InputError):
        AdaptationDataset(sources=[(xs, ys)], target=rng.normal(size=(3, 5)))
    with pytest.raises(InputError):
        AdaptationDataset(sources=[(xs, ys[:, :-1])], target=rng.normal(size=(2, 5)))


def test_domain_matrix_one_hot_rows():
    ds = separable_dataset()
    z = ds.domain_matrix
    assert z.shape == (2, ds.n_source + ds.n_target)
    np.testing.assert_array_equal(z.sum(axis=0), np.ones(z.shape[1]))
    assert z[0, : ds.n_source].all() and z[1, ds.n_source:].all()


# pretraining


def test_pretrain_reaches_separable_optimum():
    # oracle: plain logistic regression separates this data perfectly, so the
    # stronger network must also reach training accuracy 1.0
    ds = separable_dataset()
    xs, ys = ds.source_features, ds.source_labels
    w = np.zeros((xs.shape[0] + 1, 2))
    xb = np.vstack([xs, np.ones(xs.shape[1])])
    for _ in range(500):
        p = np.exp(w.T @ xb - (w.T @ xb).max(axis=0))
        p /= p.sum(axis=0)
        w -= 0.1 * (xb @ (p - ys).T) / xs.shape[1]
    p = np.exp(w.T @ xb)
    assert (p.argmax(axis=0) == ys.argmax(axis=0)).mean() == 1.0

    cfg = quick_config(pretrain_epochs=200)
    params, trace = pretrain(ds, cfg, init_params_for(ds, cfg))
    probs = forward_pass(params, xs).probs
    assert (probs.argmax(axis=0) == ys.argmax(axis=0)).mean() == 1.0
    assert len(trace.losses) == 200


def test_pretrain_zero_epochs_identity():
    ds = separable_dataset()
    cfg = quick_config(pretrain_epochs=0)
    init = init_params_for(ds, cfg)
    params, trace = pretrain(ds, cfg, init)
    assert params_equal(params, init)
    assert params is not init
    assert trace.losses == []


def test_pretrain_deterministic():
    ds = separable_dataset()
    cfg = quick_config()
    a, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    b, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    assert params_equal(a, b)


def test_pretrain_runs_one_forward_per_epoch_over_the_sources(monkeypatch):
    ds = blob_dataset(seed=5)
    cfg = quick_config(pretrain_epochs=7)
    params = init_params_for(ds, cfg)
    calls = count_forwards(monkeypatch)
    pretrain(ds, cfg, params)
    assert calls == [ds.n_source] * cfg.pretrain_epochs


def test_pretraining_reads_no_target_truth():
    ds = blob_dataset(seed=5)
    blind = AdaptationDataset(sources=ds.sources, target=ds.target)
    cfg = quick_config(pretrain_epochs=7)
    a, trace_a = pretrain(ds, cfg, init_params_for(ds, cfg))
    b, trace_b = pretrain(blind, cfg, init_params_for(blind, cfg))
    assert params_equal(a, b)
    assert trace_a == trace_b and trace_a.target_accuracy == []


def test_pretrain_aborts_on_nonfinite_loss():
    ds = separable_dataset()
    cfg = quick_config(pretrain_epochs=5)
    params = init_params_for(ds, cfg)
    params.g_w1[0, 0] = np.nan
    with pytest.raises(NumericalError, match="epoch 0"):
        pretrain(ds, cfg, params)


# pseudo-labels


def test_pseudo_labels_tie_break_lowest_class():
    ds = separable_dataset()
    zero = ModelParams(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 3)),
                       np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    init_pseudo_labels(ds, zero, PseudoLabelMode.HARD)
    np.testing.assert_array_equal(ds.pseudo_labels[0], np.ones(ds.n_target))


def test_pseudo_label_modes_shape_invariants():
    ds = separable_dataset()
    cfg = quick_config()
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, PseudoLabelMode.HARD)
    assert set(np.unique(ds.pseudo_labels)) <= {0.0, 1.0}
    np.testing.assert_array_equal(ds.pseudo_labels.sum(axis=0),
                                  np.ones(ds.n_target))
    init_pseudo_labels(ds, params, PseudoLabelMode.SOFT)
    assert np.all(ds.pseudo_labels > 0)
    np.testing.assert_allclose(ds.pseudo_labels.sum(axis=0),
                               np.ones(ds.n_target), atol=1e-12)


# adaptation epochs


def test_adapt_epoch_requires_pseudo_labels():
    ds = separable_dataset()
    cfg = quick_config()
    with pytest.raises(InputError):
        adapt_epoch(ds, cfg, init_params_for(ds, cfg))


def test_adapt_epoch_with_zero_betas_is_pure_ce_step():
    ds = separable_dataset()
    cfg = quick_config()
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)

    state = AdamState.for_params(params)
    stepped, bd = adapt_epoch(ds, cfg, params, state)

    # hand-rolled reference: one Adam step on the source CE gradient alone
    reference = params.copy()
    ref_state = AdamState.for_params(reference)
    st = forward_pass(reference, ds.features)
    dlogits = np.zeros_like(st.probs)
    dlogits[:, : ds.n_source] = st.probs[:, : ds.n_source] - ds.source_labels
    from condadapt.model import backward_pass

    grads = backward_pass(reference, st, dlogits)
    adam_step(reference, grads, ref_state, cfg.learning_rate, cfg.adam)

    assert params_equal(stepped, reference)
    assert bd.cond == 0.0 and bd.ent == 0.0
    assert bd.total == bd.ce


def test_adapt_epoch_breakdown_identity():
    ds = separable_dataset()
    cfg = quick_config(beta1=0.05, beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    _, bd = adapt_epoch(ds, cfg, params)
    assert bd.total == bd.ce + 0.05 * bd.cond + 0.01 * bd.ent
    assert bd.cond > 0 and bd.ent > 0


def test_adapt_epoch_names_failing_term():
    ds = separable_dataset()
    cfg = quick_config()
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    params.c_w[0, 0] = np.nan
    with pytest.raises(NumericalError, match="cross-entropy"):
        adapt_epoch(ds, cfg, params)


def test_overflowing_adam_update_is_named_at_its_epoch():
    # lr * m overflows for any gradient entry above 1.8 (summed cross-entropy
    # gives several), so the first update makes parameters infinite; the error
    # must name the update and its epoch, not the next epoch's cross-entropy
    ds = separable_dataset()
    cfg = quick_config()
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="Adam update.*pretrain epoch 0"):
            pretrain(ds, quick_config(learning_rate=1e308), init_params_for(ds, cfg))
    params = init_params_for(ds, cfg)  # untrained, so gradients stay large
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    state = AdamState.for_params(params)
    params, _ = adapt_epoch(ds, cfg, params, state)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="Adam update.*adaptation epoch 1"):
            adapt_epoch(ds, quick_config(learning_rate=1e308), params, state)


def test_aligned_domains_have_lower_cond_term():
    # paired comparison: identical source/target distributions versus a
    # shifted target, same seeds, one adaptation step each
    aligned_terms, shifted_terms = [], []
    cfg = quick_config(beta1=1.0, pretrain_epochs=40)
    for seed in range(10):
        for shift, store in (((0.0, 0.0), aligned_terms),
                             ((2.0, 0.0), shifted_terms)):
            ds = blob_dataset(seed=seed, shift=shift)
            params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
            init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
            _, bd = adapt_epoch(ds, cfg, params)
            store.append(bd.cond)
    assert np.median(aligned_terms) < np.median(shifted_terms)


def test_pseudo_labels_refreshed_after_update():
    ds = separable_dataset()
    cfg = quick_config(beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    stepped, _ = adapt_epoch(ds, cfg, params)
    expected = forward_pass(stepped, ds.target).probs.argmax(axis=0)
    np.testing.assert_array_equal(ds.pseudo_labels.argmax(axis=0), expected)
    np.testing.assert_array_equal(ds.pseudo_labels.sum(axis=0),
                                  np.ones(ds.n_target))


# full fit


def test_fit_deterministic_and_traced():
    ds1 = blob_dataset(seed=3)
    ds2 = blob_dataset(seed=3)
    cfg = quick_config(beta1=0.01, beta2=0.005, adapt_epochs=5)
    p1, t1 = fit(ds1, cfg)
    p2, t2 = fit(ds2, cfg)
    assert params_equal(p1, p2)
    assert t1.losses == t2.losses
    assert t1.target_accuracy == t2.target_accuracy
    assert len(t1.losses) == cfg.pretrain_epochs + cfg.adapt_epochs
    assert len(t1.target_accuracy) == cfg.adapt_epochs  # adaptation epochs only


def test_fit_zero_adapt_epochs_returns_pretrained():
    ds1 = blob_dataset(seed=4)
    ds2 = blob_dataset(seed=4)
    cfg = quick_config(adapt_epochs=0)
    fitted, _ = fit(ds1, cfg)
    pretrained, _ = pretrain(ds2, cfg, init_params_for(ds2, cfg))
    assert params_equal(fitted, pretrained)


@pytest.mark.parametrize("field", ["hidden_units", "rep_dim"])
def test_fit_rejects_pretraining_of_another_network(field):
    ds = blob_dataset(seed=6)
    other = quick_config(**{field: 4})
    pretrained = pretrain(ds, other, init_params_for(ds, other))
    with pytest.raises(ConfigError, match="pretrained network has dims"):
        fit(blob_dataset(seed=6), quick_config(), pretrained)


def test_two_identical_sources_match_merged_source():
    # with the conditional term off, the domain ids are inert and N sources
    # are exactly their concatenation
    rng = np.random.default_rng(9)
    xa = rng.normal(size=(2, 20))
    ya = one_hot(rng.integers(0, 2, size=20), 2)
    xb = rng.normal(size=(2, 20))
    yb = one_hot(rng.integers(0, 2, size=20), 2)
    xt = rng.normal(size=(2, 15))

    split = AdaptationDataset(sources=[(xa, ya), (xb, yb)], target=xt.copy())
    merged = AdaptationDataset(sources=[(np.hstack([xa, xb]), np.hstack([ya, yb]))],
                               target=xt.copy())
    cfg = quick_config(beta2=0.01, adapt_epochs=8)
    p_split, t_split = fit(split, cfg)
    p_merged, t_merged = fit(merged, cfg)
    assert params_equal(p_split, p_merged)
    assert t_split.losses == t_merged.losses


def test_single_source_dataset_built_two_ways_is_identical():
    ds = blob_dataset(seed=5)
    manual = AdaptationDataset(sources=[(ds.sources[0][0].copy(),
                                         ds.sources[0][1].copy())],
                               target=ds.target.copy(),
                               target_truth=ds.target_truth.copy())
    cfg = quick_config(beta1=0.01, adapt_epochs=5)
    p1, _ = fit(ds, cfg)
    p2, _ = fit(manual, cfg)
    assert params_equal(p1, p2)


def test_adaptation_reduces_cond_on_aligned_family():
    # the conditional objective evaluated on final features should drop below
    # its value on the pretrained features (median over seeds)
    drops = []
    cfg = quick_config(beta1=1.0, pretrain_epochs=60, adapt_epochs=60,
                       learning_rate=5e-3)
    for seed in range(10):
        ds = blob_dataset(seed=seed, shift=(1.0, 0.0))
        params = init_params_for(ds, cfg)
        params, _ = pretrain(ds, cfg, params)
        init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
        y_all = np.hstack([ds.source_labels, ds.pseudo_labels])
        z = ds.domain_matrix
        before = cond_objective(forward_pass(params, ds.features).xre, y_all, z,
                                None, cfg.epsilon)[0]
        opt = AdamState.for_params(params)
        for _ in range(cfg.adapt_epochs):
            params, _ = adapt_epoch(ds, cfg, params, opt)
        y_all = np.hstack([ds.source_labels, ds.pseudo_labels])
        after = cond_objective(forward_pass(params, ds.features).xre, y_all, z,
                               None, cfg.epsilon)[0]
        drops.append(before - after)
    assert np.median(drops) > 0


def test_target_accuracy_requires_truth():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    ds = AdaptationDataset(sources=[(xs, ys)], target=rng.normal(size=(2, 5)))
    cfg = quick_config()
    assert target_accuracy(init_params_for(ds, cfg), ds) is None


def test_adam_step_moves_toward_minimum():
    params = init_params(2, 4, 3, 2, seed=0)
    state = AdamState.for_params(params)
    before = [a.copy() for a in params.arrays()]
    grads = [np.ones_like(a) for a in params.arrays()]
    adam_step(params, grads, state, 0.01, AdamConfig())
    for old, new in zip(before, params.arrays()):
        assert np.all(new < old)
    assert state.t == 1


# one forward pass per adaptation step


def count_forwards(monkeypatch):
    """Patch the trainer's forward pass with a counting wrapper."""
    calls = []

    def counted(params, x):
        calls.append(x.shape[1])
        return forward_pass(params, x)

    monkeypatch.setattr(trainer, "forward_pass", counted)
    return calls


def steady_state():
    """A dataset, config, parameters and optimizer state after one adaptation step."""
    ds = blob_dataset(seed=3)
    cfg = quick_config(beta1=0.05, beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    state = AdamState.for_params(params)
    params, _ = adapt_epoch(ds, cfg, params, state)
    return ds, cfg, params, state


def plain_accuracy(params, ds):
    pred = forward_pass(params, ds.target).probs.argmax(axis=0)
    return float(np.mean(pred == ds.target_truth.argmax(axis=0)))


def test_steady_state_step_runs_one_forward_and_accuracy_none(monkeypatch):
    ds, cfg, params, state = steady_state()
    assert not any(a.flags.writeable for a in params.arrays())
    assert all(a.flags.writeable for a in params.copy().arrays())
    calls = count_forwards(monkeypatch)
    for _ in range(3):
        params, _ = adapt_epoch(ds, cfg, params, state)
        acc = target_accuracy(params, ds)
    assert calls == [ds.n_source + ds.n_target] * 3
    assert acc == plain_accuracy(params, ds)


def detached(state: AdamState) -> AdamState:
    """A copy of the optimizer state that carries no forward state."""
    return AdamState([m.copy() for m in state.m], [v.copy() for v in state.v], state.t)


def plain_step(ds, cfg, params, state):
    """The same step on a dataset rebuilt from copies, with no carried forward."""
    twin = AdaptationDataset(sources=[(x.copy(), y.copy()) for x, y in ds.sources],
                             target=ds.target.copy(), target_truth=ds.target_truth.copy(),
                             pseudo_labels=ds.pseudo_labels.copy())
    stepped, bd = adapt_epoch(twin, cfg, params.copy(), detached(state))
    return stepped, bd, twin


def mutate(ds, params):
    params.g_w1.setflags(write=True)
    params.g_w1[0, 0] += 0.25
    return ds, params


def replace_array(ds, params):
    return ds, ModelParams(*params.arrays()[:4], params.c_w + 0.1, params.c_b)


def reassign_target(ds, params):
    ds.target = ds.target + 0.3
    return ds, params


def reassign_sources(ds, params):
    ds.sources = [(x - 0.3, y) for x, y in ds.sources]
    return ds, params


def edit_target(ds, params):
    ds.target *= -1.0
    return ds, params


def edit_sources(ds, params):
    for x, _ in ds.sources:
        x[:, :5] += 2.0
    return ds, params


def other_dataset(ds, params):
    other = blob_dataset(seed=8)
    init_pseudo_labels(other, params, PseudoLabelMode.HARD)
    return other, params


@pytest.mark.parametrize("change", [mutate, replace_array, reassign_target,
                                    reassign_sources, edit_target, edit_sources,
                                    other_dataset])
def test_changed_inputs_force_a_fresh_forward(monkeypatch, change):
    ds, cfg, params, state = steady_state()
    ds, params = change(ds, params)
    assert target_accuracy(params, ds) == plain_accuracy(params, ds)
    want, want_bd, twin = plain_step(ds, cfg, params, state)
    calls = count_forwards(monkeypatch)
    got, got_bd = adapt_epoch(ds, cfg, params, state)
    n = ds.n_source + ds.n_target
    assert calls == [n, n]
    assert params_equal(got, want) and got_bd == want_bd
    np.testing.assert_array_equal(ds.pseudo_labels, twin.pseudo_labels)
    assert target_accuracy(got, ds) == plain_accuracy(got, ds)


def test_an_in_place_edit_of_an_array_the_forward_read_raises():
    # the carried forward read the parameters, which the step made read-only;
    # the dataset's blocks stay the caller's, writeable, and an edit is seen
    rng = np.random.default_rng(9)
    blocks = [(rng.normal(size=(2, 20)), one_hot(np.arange(20) % 2, 2)) for _ in range(2)]
    target = rng.normal(size=(2, 24)) + 0.5
    ds = AdaptationDataset(sources=blocks, target=target,
                           target_truth=one_hot(np.arange(24) % 2, 2))
    cfg = quick_config(beta1=0.05, beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    params, _ = adapt_epoch(ds, cfg, params)
    assert ds.target is target  # passed without a copy, and not frozen
    before = target_accuracy(params, ds)
    ds.target += 3.0
    for x, _ in ds.sources:
        x[0, 0] -= 0.3
    for a in params.arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert target_accuracy(params, ds) == plain_accuracy(params, ds) != before


def test_an_edit_through_the_base_of_a_view_block_is_seen():
    # a view block is kept as it is, so an edit through its base reaches it
    rng = np.random.default_rng(9)
    big_s, big_t = rng.normal(size=(4, 20)), rng.normal(size=(4, 24)) + 0.5
    ds = AdaptationDataset(sources=[(big_s[:2], one_hot(np.arange(20) % 2, 2))],
                           target=big_t[:2], target_truth=one_hot(np.arange(24) % 2, 2))
    assert np.shares_memory(ds.target, big_t)
    assert np.shares_memory(ds.sources[0][0], big_s)
    cfg = quick_config(beta1=0.05, beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    params, _ = adapt_epoch(ds, cfg, params)
    before = target_accuracy(params, ds)
    big_t[:2] += 3.0
    big_s[:2] -= 3.0
    assert target_accuracy(params, ds) == plain_accuracy(params, ds) != before


def test_an_edit_through_an_alias_made_before_the_step_is_seen(monkeypatch):
    # numpy passes no read-only flag to a view that already exists, so only
    # comparing the features with those the forward read can catch this edit
    blobs = blob_dataset(seed=3)
    target = blobs.target.copy()
    alias = target[:]
    ds = AdaptationDataset(sources=blobs.sources, target=target,
                           target_truth=blobs.target_truth)
    cfg = quick_config(beta1=0.05, beta2=0.01)
    params, _ = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    state = AdamState.for_params(params)
    params, _ = adapt_epoch(ds, cfg, params, state)
    before = target_accuracy(params, ds)
    alias[:] = -alias - 5.0
    assert target_accuracy(params, ds) == plain_accuracy(params, ds) != before
    want, want_bd, twin = plain_step(ds, cfg, params, state)
    calls = count_forwards(monkeypatch)
    got, got_bd = adapt_epoch(ds, cfg, params, state)
    assert calls == [ds.n_source + ds.n_target] * 2
    assert params_equal(got, want) and got_bd == want_bd
    np.testing.assert_array_equal(ds.pseudo_labels, twin.pseudo_labels)


def test_a_dataset_over_the_same_arrays_reuses_the_forward(monkeypatch):
    # the carried forward is keyed on the arrays it read, not on the dataset object
    ds, cfg, params, state = steady_state()
    same = AdaptationDataset(sources=ds.sources, target=ds.target,
                             pseudo_labels=ds.pseudo_labels, target_truth=ds.target_truth)
    want, want_bd, twin = plain_step(same, cfg, params, state)
    calls = count_forwards(monkeypatch)
    got, got_bd = adapt_epoch(same, cfg, params, state)
    assert calls == [same.n_source + same.n_target]
    assert params_equal(got, want) and got_bd == want_bd
    np.testing.assert_array_equal(same.pseudo_labels, twin.pseudo_labels)


def three_forward_fit(ds, cfg):
    """Pretraining, then adaptation steps written out with a separate forward
    for the step, the relabel and the accuracy, and Adam in its textbook form."""
    params, trace = pretrain(ds, cfg, init_params_for(ds, cfg))
    init_pseudo_labels(ds, params, cfg.pseudo_label_mode)
    m = [np.zeros_like(a) for a in params.arrays()]
    v = [np.zeros_like(a) for a in params.arrays()]
    b1, b2, eps = cfg.adam.beta1, cfg.adam.beta2, cfg.adam.eps
    ns, ys = ds.n_source, ds.source_labels
    for t in range(1, cfg.adapt_epochs + 1):
        st = forward_pass(params, ds.features)
        ce = loss_ce(st.probs[:, :ns], ys)
        dlogits = np.zeros_like(st.probs)
        dlogits[:, :ns] = st.probs[:, :ns] - ys
        ent = loss_entropy(st.probs[:, ns:])
        dlogits[:, ns:] = cfg.beta2 * entropy_grad_wrt_logits(st.probs[:, ns:])
        y_all = np.hstack([ys, ds.pseudo_labels])
        cfgs = CondKernelConfig.resolve(st.xre, y_all, ds.domain_matrix)
        cond, grad = cond_objective(st.xre, y_all, ds.domain_matrix, cfgs, cfg.epsilon)
        grads = backward_pass(params, st, dlogits, cfg.beta1 * grad)
        for a, g, mi, vi in zip(params.arrays(), grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            a -= cfg.learning_rate * (mi / (1.0 - b1 ** t)) / (np.sqrt(vi / (1.0 - b2 ** t)) + eps)
        probs = forward_pass(params, ds.target).probs
        if cfg.pseudo_label_mode is PseudoLabelMode.SOFT:
            ds.pseudo_labels = probs
        else:
            ds.pseudo_labels = np.zeros_like(probs)
            ds.pseudo_labels[probs.argmax(axis=0), np.arange(probs.shape[1])] = 1.0
        trace.losses.append(LossBreakdown(ce, cond, ent, cfg.beta1, cfg.beta2))
        trace.target_accuracy.append(plain_accuracy(params, ds))
    return params, trace


def test_hard_label_fit_matches_three_forward_loop():
    cfg = quick_config(beta1=0.05, beta2=0.01, hidden_units=64, rep_dim=32)
    for seed in (0, 1):
        p, t = fit(blob_dataset(seed=seed), cfg)
        q, u = three_forward_fit(blob_dataset(seed=seed), cfg)
        assert params_equal(p, q)
        assert t == u


def unbalanced_dataset():
    rng = np.random.default_rng(21)

    def domain(n, offset):
        labels = rng.integers(0, 3, n)
        return rng.normal(size=(2, n)) * 0.6 + 3.0 * labels + offset, one_hot(labels, 3)

    (xa, ya), (xb, yb), (xt, yt) = domain(296, 0.0), domain(148, 0.4), domain(157, 1.0)
    return AdaptationDataset(sources=[(xa, ya), (xb, yb)], target=xt, target_truth=yt)


def test_soft_label_fit_on_unbalanced_layout_stays_close_to_three_forward_loop():
    # the relabel reads a column slice of the step's forward, which BLAS may
    # round differently from a forward over the target alone when the column
    # counts are unbalanced (here parameters end up to 7e-14 apart with one
    # BLAS thread); soft labels carry that into the next step's gradient
    cfg = quick_config(beta1=0.05, beta2=0.01, pseudo_label_mode=PseudoLabelMode.SOFT,
                       hidden_units=64, rep_dim=32)
    p, t = fit(unbalanced_dataset(), cfg)
    q, u = three_forward_fit(unbalanced_dataset(), cfg)
    for a, b in zip(p.arrays(), q.arrays()):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-11)
    np.testing.assert_allclose([b.total for b in t.losses], [b.total for b in u.losses],
                               rtol=1e-14)
    assert t.target_accuracy == u.target_accuracy


def test_fit_on_shared_pretraining_matches_own_pretraining():
    ds = blob_dataset(seed=6)
    other = quick_config(beta1=0.0, beta2=0.0, epsilon=1e-2)
    shared = pretrain(ds, other, init_params_for(ds, other))
    cfg = quick_config(beta1=0.05, beta2=0.01)
    p, t = fit(blob_dataset(seed=6), cfg, shared)
    q, u = fit(blob_dataset(seed=6), cfg)
    assert params_equal(p, q)
    assert t == u
    assert all(a.flags.writeable for a in shared[0].arrays())
