import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condadapt
from condadapt import kernels, measures
from condadapt.data import chain_triple
from condadapt.errors import ConfigError, DegenerateDataError, InputError, NumericalError
from condadapt.kernels import (
    GramMatrix,
    KernelConfig,
    center,
    distinct_columns,
    gram,
    label_gram,
    mean_sq_dist_bandwidth,
    normalize,
    pairwise_sq_dists,
    product_gram,
)
from condadapt.trainer import TrainConfig

UNIT = KernelConfig(1.0)


def random_features(seed, d=3, n=20, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(d, n))


# kernel values, read off a two-column gram


def pair_kernel(x, y, cfg):
    return gram(np.column_stack([x, y]), cfg).entries


def test_kernel_identical_points_is_one():
    x = np.array([0.3, -1.2, 4.0])
    assert pair_kernel(x, x, UNIT)[0, 1] == 1.0


def test_kernel_unit_distance_closed_form():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert pair_kernel(x, y, UNIT)[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = rng.normal(size=(2, 4))
        assert pair_kernel(x, y, UNIT)[0, 1] == pair_kernel(y, x, UNIT)[0, 1]


def test_kernel_config_rejects_bad_bandwidth():
    with pytest.raises(ConfigError):
        KernelConfig(0.0)
    with pytest.raises(ConfigError):
        KernelConfig(-1.0)
    with pytest.raises(ConfigError):
        KernelConfig(float("nan"))


# mean_sq_dist_bandwidth


def test_bandwidth_two_points_closed_form():
    # pairs (0,0),(0,2),(2,0),(2,2) -> (0+4+4+0)/4
    x = np.array([[0.0, 2.0]])
    assert mean_sq_dist_bandwidth(x) == 2.0


@settings(deadline=None)
@given(seed=st.integers(0, 500), c=st.floats(0.1, 10.0))
def test_bandwidth_scales_quadratically(seed, c):
    x = random_features(seed, d=2, n=12)
    assert mean_sq_dist_bandwidth(c * x) == pytest.approx(
        c * c * mean_sq_dist_bandwidth(x), rel=1e-12
    )


def test_bandwidth_matches_expected_moment():
    # E||x - x'||^2 = 2d for standard normal samples
    x = random_features(7, d=2, n=1000)
    assert mean_sq_dist_bandwidth(x) == pytest.approx(4.0, abs=0.3)


def test_bandwidth_identical_columns_degenerate():
    x = np.ones((3, 5))
    with pytest.raises(DegenerateDataError):
        mean_sq_dist_bandwidth(x)


@settings(deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 5), n=st.integers(2, 60),
       scale=st.floats(1e-3, 1e3), offset=st.floats(-10.0, 10.0))
def test_bandwidth_closed_form_matches_pairwise_mean(seed, d, n, scale, offset):
    x = scale * (offset + random_features(seed, d=d, n=n))
    diff = x[:, :, None] - x[:, None, :]
    pairwise = np.einsum("kij,kij->ij", diff, diff).mean()
    assert mean_sq_dist_bandwidth(x) == pytest.approx(pairwise, rel=1e-13)


def test_bandwidth_identical_columns_degenerate_despite_rounded_mean():
    # the mean of three 0.1s rounds away from 0.1, so x - mean(x) != 0
    x = np.full((2, 3), 0.1)
    assert np.any(x - x.mean(axis=1, keepdims=True) != 0.0)
    with pytest.raises(DegenerateDataError):
        mean_sq_dist_bandwidth(x)


def test_bandwidth_single_sample_rejected():
    with pytest.raises(InputError):
        mean_sq_dist_bandwidth(np.zeros((3, 1)))


def test_config_from_data_uses_mean_sq_dist():
    x = random_features(3)
    cfg = KernelConfig.from_data(x)
    assert cfg.bandwidth_sq == mean_sq_dist_bandwidth(x)


# gram


def test_gram_single_sample():
    g = gram(np.array([[1.5]]), UNIT)
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == 1.0


def test_gram_two_points_closed_form():
    g = gram(np.array([[0.0, 1.0]]), UNIT)
    e = math.exp(-1.0)
    np.testing.assert_allclose(g.entries, [[1.0, e], [e, 1.0]], rtol=1e-15)


def test_gram_exactly_symmetric_unit_diagonal():
    x = random_features(11, d=4, n=40)
    g = gram(x, KernelConfig.from_data(x))
    assert np.array_equal(g.entries, g.entries.T)
    np.testing.assert_array_equal(np.diag(g.entries), np.ones(40))


def test_gram_spectrum_nonnegative():
    # eigendecomposition oracle for the PSD invariant
    for seed in range(5):
        x = random_features(seed, d=3, n=60)
        g = gram(x, KernelConfig.from_data(x))
        eigs = np.linalg.eigvalsh(g.entries)
        assert eigs.min() >= -1e-8 * 60


def triu_mirror_sq_dists(x):
    """The former formula: upper triangle of the expanded distances, mirrored."""
    sq = np.einsum("ij,ij->j", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    np.maximum(d2, 0.0, out=d2)
    upper = np.triu(d2, k=1)
    return upper + upper.T


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 40), n=st.integers(1, 300),
       log_scale=st.floats(-3.0, 3.0))
def test_pairwise_sq_dists_matches_mirrored_triangle_bit_for_bit(seed, d, n, log_scale):
    base = 10.0 ** log_scale * np.random.default_rng(seed).normal(size=(d + 2, 2 * n + 3))
    layouts = {
        "C": np.ascontiguousarray(base[:d, :n]),
        "F": np.asfortranarray(base[:d, :n]),
        "row-sliced": base[1:d + 1],
        "block": base[1:d + 1, 2:n + 2],
    }
    # every layout is built from a C-ordered copy, so F gives the C bits
    for name, x in layouts.items():
        d2 = pairwise_sq_dists(x)
        assert np.array_equal(d2, triu_mirror_sq_dists(np.ascontiguousarray(x))), name
        assert np.array_equal(d2, d2.T), name
        assert np.all(np.diag(d2) == 0.0), name
    assert np.array_equal(pairwise_sq_dists(layouts["F"]), pairwise_sq_dists(layouts["C"]))
    # a view strided along both axes is copied too, so it is symmetric
    d2 = pairwise_sq_dists(base[:d, ::2])
    assert np.array_equal(d2, d2.T) and np.all(np.diag(d2) == 0.0)
    assert np.allclose(d2, triu_mirror_sq_dists(base[:d, ::2]), rtol=1e-12,
                       atol=1e-12 * np.max(d2, initial=0.0))


def test_gram_matrix_rejects_asymmetry():
    bad = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(InputError):
        GramMatrix(bad)


def test_gram_matrix_rejects_a_non_square_array():
    with pytest.raises(InputError, match="square"):
        GramMatrix(np.ones((2, 3)))


@pytest.mark.parametrize("name", ["GramMatrix", "gram", "label_gram", "product_gram",
                                  "center", "normalize", "cond"])
def test_the_gram_layer_is_not_exported_from_the_package_root(name):
    assert not hasattr(condadapt, name)
    assert hasattr(measures if name == "cond" else kernels, name)


# product_gram


def test_product_with_ones_is_identity_map():
    x = random_features(2, n=15)
    a = gram(x, KernelConfig.from_data(x))
    ones = GramMatrix(np.ones((15, 15)))
    np.testing.assert_array_equal(product_gram(a, ones).entries, a.entries)


def test_product_two_by_two_closed_form():
    a = 0.4
    k = GramMatrix(np.array([[1.0, a], [a, 1.0]]))
    out = product_gram(k, k)
    np.testing.assert_allclose(out.entries, [[1.0, a * a], [a * a, 1.0]], rtol=1e-15)


def test_product_preserves_psd():
    # Schur product theorem, checked against an eigendecomposition oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        xa = rng.normal(size=(3, 25))
        xb = rng.normal(size=(2, 25))
        ka = gram(xa, KernelConfig.from_data(xa))
        kb = gram(xb, KernelConfig.from_data(xb))
        eigs = np.linalg.eigvalsh(product_gram(ka, kb).entries)
        assert eigs.min() >= -1e-8 * 25


def test_product_size_mismatch():
    a = GramMatrix(np.ones((3, 3)))
    b = GramMatrix(np.ones((4, 4)))
    with pytest.raises(InputError):
        product_gram(a, b)


# center


def test_center_kills_constant_matrix():
    k = GramMatrix(3.7 * np.ones((6, 6)))
    np.testing.assert_allclose(center(k), np.zeros((6, 6)), atol=1e-12)


def test_center_two_by_two_closed_form():
    a = math.exp(-1.0)
    k = GramMatrix(np.array([[1.0, a], [a, 1.0]]))
    expected = ((1.0 - a) / 2.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(center(k), expected, rtol=1e-14)


def test_center_is_idempotent():
    x = random_features(9, n=30)
    g = center(gram(x, KernelConfig.from_data(x)))
    g2 = center(GramMatrix(g))
    np.testing.assert_allclose(g2, g, atol=1e-12)


@settings(deadline=None)
@given(seed=st.integers(0, 300), n=st.integers(2, 40))
def test_center_zeroes_row_and_column_sums(seed, n):
    x = random_features(seed, d=2, n=n)
    g = center(gram(x, KernelConfig.from_data(x)))
    assert np.abs(g.sum(axis=0)).max() <= 1e-10 * n
    assert np.abs(g.sum(axis=1)).max() <= 1e-10 * n
    assert np.array_equal(g, g.T)


# normalize


def test_normalize_zero_matrix():
    # solve-route leaves at most an ulp of noise around the exact zero result
    r = normalize(np.zeros((4, 4)), 0.1)
    np.testing.assert_allclose(r, np.zeros((4, 4)), atol=1e-15)


def test_normalize_two_by_two_eigen_oracle():
    # centered 2x2 Gram has eigenvalue (1-a) on (1,-1)/sqrt(2) and 0 on (1,1)/sqrt(2)
    a = math.exp(-1.0)
    eps = 0.05
    g = center(GramMatrix(np.array([[1.0, a], [a, 1.0]])))
    r = normalize(g, eps)
    lam = 1.0 - a
    v1 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    v0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(r @ v1, (lam / (lam + 2 * eps)) * v1, rtol=1e-12)
    np.testing.assert_allclose(r @ v0, np.zeros(2), atol=1e-14)


def test_normalize_shrinks_with_epsilon():
    x = random_features(4, n=25)
    g = center(gram(x, KernelConfig.from_data(x)))
    norms = [np.linalg.norm(normalize(g, e)) for e in (1e-4, 1e-2, 1.0, 100.0)]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 1e-2


def test_normalize_spectral_bounds():
    for seed in range(4):
        x = random_features(seed, n=50)
        g = center(gram(x, KernelConfig.from_data(x)))
        eigs = np.linalg.eigvalsh(normalize(g, 1e-3))
        assert eigs.min() >= -1e-12
        assert eigs.max() < 1.0


def test_normalize_commutes_with_rotation():
    rng = np.random.default_rng(21)
    x = random_features(21, n=30)
    g = center(gram(x, KernelConfig.from_data(x)))
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    left = normalize(q.T @ g @ q, 1e-3)
    right = q.T @ normalize(g, 1e-3) @ q
    np.testing.assert_allclose(left, right, atol=1e-8)


def test_normalize_rejects_bad_epsilon():
    g = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        normalize(g, 0.0)
    with pytest.raises(ConfigError):
        normalize(g, -1e-3)


def test_normalize_rejects_nonfinite():
    g = np.full((3, 3), np.nan)
    with pytest.raises(NumericalError):
        normalize(g, 1e-3)


# label_gram


def test_label_gram_constant_labels_all_ones():
    y = np.ones((1, 8))
    np.testing.assert_array_equal(label_gram(y).entries, np.ones((8, 8)))


def test_label_gram_one_hot_blocks():
    # Gaussian on one-hot columns: same class -> 1, different -> exp(-2/msd)
    y = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    k = label_gram(y).entries
    d2 = np.array([[np.sum((a - b) ** 2) for b in y.T] for a in y.T])
    off = math.exp(-2.0 / d2.mean())
    expected = np.array([[1.0, 1.0, off], [1.0, 1.0, off], [off, off, 1.0]])
    np.testing.assert_allclose(k, expected, rtol=1e-14)


def test_label_gram_gives_equal_columns_equal_rows():
    # softmax columns shared per class: their entries are not powers of two,
    # so the expanded distance of two equal columns can round away from 0;
    # samples with equal columns must still get exactly equal rows, and the
    # Gram must equal the Gaussian one with the bandwidth fitted on all columns
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = rng.normal(size=(4, 3))
        cols = np.exp(logits) / np.exp(logits).sum(axis=0)
        classes = rng.integers(0, 3, size=12)
        y = cols[:, classes]
        k = label_gram(y).entries
        for c in np.unique(classes):
            rows = k[classes == c]
            assert np.all(rows == rows[0])
        np.testing.assert_allclose(k, gram(y, KernelConfig.from_data(y)).entries,
                                   rtol=1e-14, atol=1e-15)
        assert np.array_equal(k, k.T)


@pytest.mark.parametrize("call,name", [
    (lambda: TrainConfig(seed=True, hidden_units=True), "seed"),
    (lambda: TrainConfig(hidden_units=True), "hidden_units"),
    (lambda: TrainConfig(seed=np.True_), "seed"),
    (lambda: chain_triple(60, True), "seed"),
    (lambda: chain_triple(True, 0), "n"),
    (lambda: measures.nocco_from_features(np.eye(4), np.eye(4), 1e-2, permutations=True),
     "permutations"),
], ids=["config-seed-and-units", "config-units", "config-numpy-bool", "chain-seed",
        "chain-n", "permutations"])
def test_a_bool_is_not_an_integer(call, name):
    # bool subclasses int, so True would pass as 1
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= \\d+, got (np\\.)?True"):
        call()


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 4), n=st.integers(1, 40),
       kind=st.sampled_from(["signed-zeros", "soft", "repeated-soft"]))
def test_distinct_columns_matches_np_unique(seed, rows, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "signed-zeros":  # columns that differ only by -0.0 and 0.0 are equal
        m = rng.integers(-1, 2, size=(rows, n)) * rng.choice([1.0, 0.5], size=(rows, n))
        m[m == 0.0] = rng.choice([0.0, -0.0], size=int(np.count_nonzero(m == 0.0)))
    else:  # softmax label columns, each its own or drawn from a few
        logits = rng.normal(size=(rows, n if kind == "soft" else 3))
        m = np.exp(logits) / np.exp(logits).sum(axis=0)
        if kind == "repeated-soft":
            m = m[:, rng.integers(0, 3, size=n)]
    first, number = distinct_columns(m)
    cells, ref_first, ref_number = np.unique(m, axis=1, return_index=True,
                                             return_inverse=True)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(number, ref_number.ravel())
    assert np.array_equal(m[:, first], cells)
