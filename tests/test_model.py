import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condadapt.data import one_hot
from condadapt.errors import ConfigError, InputError, ParseError
from condadapt.gradients import cond_objective
from condadapt.model import (
    LossBreakdown,
    ModelParams,
    backward_pass,
    entropy_grad_wrt_logits,
    forward_pass,
    init_params,
    load_params,
    loss_ce,
    loss_entropy,
    save_params,
    softmax_columns,
)
from condadapt.trainer import AdaptationDataset, TrainConfig, adapt_epoch
from support import finite_diff_check


def zero_params(d=3, h=5, r=4, k=2):
    return ModelParams(np.zeros((d, h)), np.zeros(h), np.zeros((h, r)),
                       np.zeros(r), np.zeros((r, k)), np.zeros(k))


def head(params, xre):
    """Class probabilities of the linear head on a given representation."""
    return softmax_columns(params.c_w.T @ xre + params.c_b[:, None])


# forward passes


def test_forward_g_zero_params_zero_output():
    params = zero_params()
    x = np.random.default_rng(0).normal(size=(3, 7))
    np.testing.assert_array_equal(forward_pass(params, x).xre, np.zeros((4, 7)))


def test_forward_g_identity_wiring_reproduces_nonnegative_input():
    # embed the identity through the ReLU layer: non-negative input passes through
    d = 4
    params = ModelParams(np.vstack([np.eye(d), np.zeros((0, d))]), np.zeros(d),
                         np.eye(d), np.zeros(d), np.zeros((d, 2)), np.zeros(2))
    x = np.abs(np.random.default_rng(1).normal(size=(d, 9)))
    np.testing.assert_allclose(forward_pass(params, x).xre, x, rtol=1e-15)


def test_forward_g_single_column_matches_batch():
    params = init_params(3, 8, 4, 2, seed=5)
    x = np.random.default_rng(5).normal(size=(3, 6))
    batched = forward_pass(params, x).xre
    for j in range(6):
        # single-column and batched matmuls may differ by an ulp (gemv vs gemm)
        np.testing.assert_allclose(forward_pass(params, x[:, [j]]).xre[:, 0],
                                   batched[:, j], atol=1e-14)


def test_forward_c_uniform_on_zero_logits():
    params = zero_params(k=4, r=4)
    probs = head(params, np.zeros((4, 5)))
    np.testing.assert_allclose(probs, 0.25 * np.ones((4, 5)), rtol=1e-15)


def test_softmax_survives_huge_logits():
    logits = np.array([[1000.0, -1000.0], [0.0, 0.0]])
    probs = softmax_columns(logits)
    assert np.all(np.isfinite(probs))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert probs[1, 1] == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(seed=st.integers(0, 400))
def test_forward_c_columns_are_distributions(seed):
    params = init_params(3, 6, 4, 3, seed=seed)
    x = np.random.default_rng(seed).normal(size=(3, 8), scale=3.0)
    probs = forward_pass(params, x).probs
    assert np.all(probs > 0)
    np.testing.assert_allclose(probs.sum(axis=0), np.ones(8), atol=1e-12)


# losses


def test_ce_zero_on_perfect_predictions():
    y = one_hot([0, 1, 1], 2)
    assert loss_ce(y.copy(), y) == 0.0


def test_ce_uniform_closed_form():
    k, n = 4, 6
    probs = np.full((k, n), 1.0 / k)
    y = one_hot(np.zeros(n, dtype=int), k)
    assert loss_ce(probs, y) == pytest.approx(n * math.log(k), rel=1e-12)


def test_ce_rejects_soft_labels():
    probs = np.full((2, 3), 0.5)
    with pytest.raises(InputError):
        loss_ce(probs, probs)


def test_entropy_bounds_and_closed_forms():
    k, n = 3, 5
    assert loss_entropy(one_hot([0, 1, 2, 0, 1], k)) == pytest.approx(0.0, abs=1e-10)
    uniform = np.full((k, n), 1.0 / k)
    assert loss_entropy(uniform) == pytest.approx(n * math.log(k), rel=1e-12)


def test_entropy_decreases_toward_vertex():
    k = 4
    vertex = one_hot([2], k)
    uniform = np.full((k, 1), 1.0 / k)
    vals = [loss_entropy((1 - t) * uniform + t * vertex) for t in (0.0, 0.4, 0.8)]
    assert vals[0] > vals[1] > vals[2]


def test_loss_breakdown_identity_is_construction():
    bd = LossBreakdown(1.37, 0.21, 4.9, 0.05, 0.003)
    assert bd.total == 1.37 + 0.05 * 0.21 + 0.003 * 4.9
    # the weights only derive the total; the record keeps what was measured
    assert not hasattr(bd, "beta1") and not hasattr(bd, "beta2")
    assert bd == LossBreakdown(1.37, 0.21, 4.9, 0.05, 0.003)


def step_breakdown(xs, ys, xt, pseudo, params, beta1, beta2, epsilon):
    """Loss terms of one adaptation step, which reports them before its update."""
    ds = AdaptationDataset(sources=[(xs, ys)], target=xt, pseudo_labels=pseudo)
    return adapt_epoch(ds, TrainConfig(beta1=beta1, beta2=beta2, epsilon=epsilon), params)[1]


def test_loss_total_switches_off_terms():
    rng = np.random.default_rng(6)
    params = init_params(2, 6, 4, 2, seed=6)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    xt = rng.normal(size=(2, 8)) + 1.0
    pseudo = one_hot(rng.integers(0, 2, size=8), 2)
    bd = step_breakdown(xs, ys, xt, pseudo, params, 0.0, 0.0, 1e-3)
    assert bd.cond == 0.0 and bd.ent == 0.0
    assert bd.total == bd.ce

    full = step_breakdown(xs, ys, xt, pseudo, params, 0.01, 0.005, 1e-3)
    assert full.ce == bd.ce
    assert full.cond > 0.0 and full.ent > 0.0
    assert full.total == full.ce + 0.01 * full.cond + 0.005 * full.ent


def test_loss_total_constant_domain_kills_cond():
    rng = np.random.default_rng(7)
    params = init_params(2, 6, 4, 2, seed=7)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    xt = rng.normal(size=(2, 8))
    pseudo = one_hot(rng.integers(0, 2, size=8), 2)
    z = np.ones((1, 18))
    xre = forward_pass(params, np.hstack([xs, xt])).xre
    cond, _ = cond_objective(xre, np.hstack([ys, pseudo]), z, None, 1e-3)
    assert cond == 0.0


def test_loss_total_requires_pseudo_labels():
    rng = np.random.default_rng(8)
    params = init_params(2, 6, 4, 2, seed=8)
    xs = rng.normal(size=(2, 10))
    ys = one_hot(rng.integers(0, 2, size=10), 2)
    xt = rng.normal(size=(2, 8))
    with pytest.raises(InputError):
        step_breakdown(xs, ys, xt, None, params, 0.1, 0.1, 1e-3)


# analytic gradients of the classification losses


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    params = init_params(3, 6, 4, 3, seed=9)
    xre = rng.normal(size=(4, 12))
    ys = one_hot(rng.integers(0, 3, size=12), 3)

    def objective(m):
        return loss_ce(head(params, m), ys)

    probs = head(params, xre)
    grad = params.c_w @ (probs - ys)
    rep = finite_diff_check(objective, xre, grad, probes=48)
    assert rep.max_rel_error < 1e-6


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    params = init_params(3, 6, 4, 3, seed=10)
    xre = rng.normal(size=(4, 12))

    def objective(m):
        return loss_entropy(head(params, m))

    probs = head(params, xre)
    grad = params.c_w @ entropy_grad_wrt_logits(probs)
    rep = finite_diff_check(objective, xre, grad, probes=48)
    assert rep.max_rel_error < 1e-6


def test_backward_pass_ce_parameter_gradients():
    # backprop through both layers checked coordinate-wise against central
    # differences on a few entries of every parameter block
    rng = np.random.default_rng(11)
    params = init_params(2, 5, 3, 2, seed=11)
    x = rng.normal(size=(2, 9))
    ys = one_hot(rng.integers(0, 2, size=9), 2)

    state = forward_pass(params, x)
    grads = backward_pass(params, state, state.probs - ys)
    arrays = params.arrays()
    step = 1e-6
    for block, grad in zip(arrays, grads):
        flat = block.ravel()
        for idx in np.random.default_rng(0).choice(flat.size,
                                                   size=min(4, flat.size),
                                                   replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_ce(forward_pass(params, x).probs, ys)
            flat[idx] = orig - step
            down = loss_ce(forward_pass(params, x).probs, ys)
            flat[idx] = orig
            numeric = (up - down) / (2 * step)
            assert numeric == pytest.approx(grad.ravel()[idx], rel=1e-5, abs=1e-8)


# initialization and serialization


def test_init_params_seeded_and_bounded():
    a = init_params(3, 8, 4, 2, seed=3)
    b = init_params(3, 8, 4, 2, seed=3)
    for left, right in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(left, right)
    assert np.abs(a.g_w1).max() <= 1.0 / math.sqrt(3)
    assert np.abs(a.g_w2).max() <= 1.0 / math.sqrt(8)
    assert np.abs(a.c_w).max() <= 1.0 / math.sqrt(4)
    c = init_params(3, 8, 4, 2, seed=4)
    assert not np.array_equal(a.g_w1, c.g_w1)


def test_init_params_rejects_bad_sizes():
    with pytest.raises(InputError):
        init_params(0, 8, 4, 2)


def test_init_params_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        init_params(3, 8, 4, 2, seed=-1)


def test_save_load_round_trip_bit_exact(tmp_path):
    params = init_params(3, 8, 4, 2, seed=12)
    path = tmp_path / "model.txt"
    save_params(params, path)
    loaded = load_params(path)
    for left, right in zip(params.arrays(), loaded.arrays()):
        np.testing.assert_array_equal(left, right)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ParseError, match="header"):
        load_params(path)


def test_load_rejects_truncated_file(tmp_path):
    params = init_params(2, 4, 3, 2, seed=13)
    path = tmp_path / "model.txt"
    save_params(params, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ParseError, match="truncated"):
        load_params(path)


@pytest.mark.parametrize("damage,fragment", [
    ("cut after g_w1", "missing block 'g_b1'"),
    ("rename g_b1", "expected block header for 'g_b1'"),
    ("narrow g_w1 rows", r"block 'g_w1' has shape \(2, 3\), header says \(2, 4\)"),
])
def test_load_rejects_a_malformed_block(tmp_path, damage, fragment):
    path = tmp_path / "model.txt"
    save_params(init_params(2, 4, 3, 2, seed=17), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "g_w1 2 4" and lines[4] == "g_b1 1 4"
    if damage == "cut after g_w1":
        lines = lines[:4]
    elif damage == "rename g_b1":
        lines[4] = "g_b9 1 4"
    else:
        lines[2:4] = [" ".join(ln.split()[:3]) for ln in lines[2:4]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=fragment):
        load_params(path)


def test_load_rejects_a_non_integer_block_shape(tmp_path):
    params = init_params(2, 4, 3, 2, seed=15)
    path = tmp_path / "model.txt"
    save_params(params, path)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("g_w1 ")
    lines[1] = "g_w1 a b"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="g_w1"):
        load_params(path)


def test_load_rejects_a_block_that_contradicts_the_header_dims(tmp_path):
    params = init_params(2, 4, 3, 2, seed=16)
    path = tmp_path / "model.txt"
    save_params(params, path)
    saved = path.read_text().splitlines()
    assert saved[0] == "condadapt-model 1 dims 2 4 3 2"
    # g_b1 one entry short of g_w1's 4 columns, with its own header agreeing
    lines = list(saved)
    i = lines.index("g_b1 1 4")
    lines[i] = "g_b1 1 3"
    lines[i + 1] = " ".join(lines[i + 1].split()[:3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="g_b1.*dims 2 4 3 2"):
        load_params(path)
    # dims that no block has
    path.write_text("\n".join(["condadapt-model 1 dims 5 5 5 5"] + saved[1:]) + "\n")
    with pytest.raises(ParseError, match="g_w1.*dims 5 5 5 5"):
        load_params(path)
    for header in ("condadapt-model 1 dims 2 4 3", "condadapt-model 1 dims 2 4 x 2"):
        path.write_text("\n".join([header] + saved[1:]) + "\n")
        with pytest.raises(ParseError, match="dims d h r k"):
            load_params(path)


def test_load_rejects_corrupt_floats(tmp_path):
    params = init_params(2, 4, 3, 2, seed=14)
    path = tmp_path / "model.txt"
    save_params(params, path)
    text = path.read_text().replace("0.", "0x", 1)
    path.write_text(text)
    with pytest.raises(ParseError):
        load_params(path)
