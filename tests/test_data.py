import ast
import inspect

import numpy as np
import pytest

from condadapt import data, trainer
from condadapt.data import (
    AdaptationDataset,
    SyntheticKind,
    SyntheticSpec,
    chain_triple,
    load_features,
    make_conditional_chain,
    make_rotated_moons,
    make_shifted_blobs,
    one_hot,
    save_features,
)
from condadapt.errors import ConfigError, InputError, ParseError
from condadapt.measures import mmd


def blob_spec(**kw):
    defaults = dict(kind=SyntheticKind.SHIFTED_BLOBS, classes=3,
                    samples_per_class_per_domain=20, noise_sd=0.4, seed=0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


# synthetic families


def test_spec_validation():
    with pytest.raises(ConfigError):
        blob_spec(classes=1)
    with pytest.raises(ConfigError):
        blob_spec(noise_sd=0.0)
    with pytest.raises(ConfigError):
        blob_spec(num_sources=0)
    with pytest.raises(ConfigError):
        blob_spec(shift=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("kind", list(SyntheticKind))
@pytest.mark.parametrize("name, value", [
    ("shift", float("nan")), ("shift", float("inf")), ("shift", (0.0, float("-inf"))),
    ("noise_sd", float("inf")), ("noise_sd", float("nan")),
    ("class_spacing", float("inf")), ("class_spacing", float("nan")),
])
def test_spec_rejects_a_non_finite_value_by_name(kind, name, value):
    with pytest.raises(ConfigError, match=name):
        SyntheticSpec(kind=kind, **{name: value})


@pytest.mark.parametrize("kind", list(SyntheticKind))
@pytest.mark.parametrize("name, value", [
    ("seed", -3), ("seed", 0.5), ("classes", 2.5), ("classes", 1),
    ("samples_per_class_per_domain", 3.0), ("num_sources", 0),
])
def test_spec_rejects_a_bad_integer_by_name(kind, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        SyntheticSpec(kind=kind, **{name: value})


@pytest.mark.parametrize("kind", ["shifted-blobs", "conditional-chain"])
def test_spec_rejects_a_kind_that_is_not_the_enum(kind):
    # a string kind used to fall through to the chain generator
    with pytest.raises(ConfigError, match="kind"):
        SyntheticSpec(kind=kind)


@pytest.mark.parametrize("kind", [SyntheticKind.CONDITIONAL_CHAIN, SyntheticKind.ROTATED_MOONS])
def test_class_spacing_is_a_shifted_blobs_setting(kind):
    # the chain and the moons generate the same data at any spacing
    with pytest.raises(ConfigError, match="class_spacing"):
        SyntheticSpec(kind=kind, class_spacing=2.0)
    SyntheticSpec(kind=kind, class_spacing=6.0)
    SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS, class_spacing=2.0)


def test_chain_triple_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        chain_triple(30, -1)


def test_generate_looks_up_the_generator_when_called(monkeypatch):
    # a wrapper installed on the module attribute (as a tracer does) must run
    calls = []

    def wrapped(spec):
        calls.append(spec)
        return make_conditional_chain(spec)

    monkeypatch.setattr(data, "make_conditional_chain", wrapped)
    spec = SyntheticSpec(kind=SyntheticKind.CONDITIONAL_CHAIN, classes=3,
                         samples_per_class_per_domain=5)
    ds = data.generate(spec)
    assert calls == [spec]
    assert ds.n_target == 15


def test_blobs_exact_counts_and_labels():
    spec = blob_spec(num_sources=2)
    ds = make_shifted_blobs(spec)
    assert ds.num_sources == 2
    for x, y in ds.sources:
        assert x.shape == (2, 60)
        np.testing.assert_array_equal(np.bincount(y.argmax(axis=0)),
                                      [20, 20, 20])
    assert ds.target.shape == (2, 60)
    np.testing.assert_array_equal(
        np.bincount(ds.target_truth.argmax(axis=0)), [20, 20, 20])


def test_blobs_deterministic_per_seed():
    a = make_shifted_blobs(blob_spec(seed=7))
    b = make_shifted_blobs(blob_spec(seed=7))
    c = make_shifted_blobs(blob_spec(seed=8))
    np.testing.assert_array_equal(a.target, b.target)
    np.testing.assert_array_equal(a.sources[0][0], b.sources[0][0])
    assert not np.array_equal(a.target, c.target)


def test_zero_shift_blobs_have_matching_marginals():
    # source and target draw from the same law, so the squared kernel
    # discrepancy between the feature clouds should be near zero
    spec = blob_spec(classes=2, samples_per_class_per_domain=200, shift=0.0)
    ds = make_shifted_blobs(spec)
    assert mmd(ds.source_features, ds.target) <= 0.02


def test_shifted_blobs_move_the_target_mean():
    spec = blob_spec(shift=(3.0, 0.0), samples_per_class_per_domain=100)
    ds = make_shifted_blobs(spec)
    gap = ds.target.mean(axis=1) - ds.sources[0][0].mean(axis=1)
    assert gap[0] == pytest.approx(3.0, abs=0.2)
    assert gap[1] == pytest.approx(0.0, abs=0.2)


def test_moons_rotation_preserves_pairwise_distances():
    spec_flat = SyntheticSpec(kind=SyntheticKind.ROTATED_MOONS, classes=2,
                              samples_per_class_per_domain=30, shift=0.0,
                              noise_sd=0.1, seed=3)
    spec_rot = SyntheticSpec(kind=SyntheticKind.ROTATED_MOONS, classes=2,
                             samples_per_class_per_domain=30, shift=np.pi / 4,
                             noise_sd=0.1, seed=3)
    flat = make_rotated_moons(spec_flat)
    rot = make_rotated_moons(spec_rot)
    # same seed consumes the same draws, so the target clouds are rigid
    # rotations of each other: distances match, coordinates do not
    d_flat = np.linalg.norm(flat.target[:, :1] - flat.target, axis=0)
    d_rot = np.linalg.norm(rot.target[:, :1] - rot.target, axis=0)
    np.testing.assert_allclose(d_flat, d_rot, atol=1e-10)
    assert not np.allclose(flat.target, rot.target)


def test_chain_shapes_and_one_hot_structure():
    x, y, z = chain_triple(101, seed=0, classes=3, domains=2)
    assert x.shape == (2, 101) and y.shape == (3, 101) and z.shape == (2, 101)
    np.testing.assert_array_equal(y.sum(axis=0), np.ones(101))
    np.testing.assert_array_equal(z.sum(axis=0), np.ones(101))
    # uneven split puts the extra sample in the first domain
    np.testing.assert_array_equal(z.sum(axis=1), [51, 50])


def test_chain_priors_differ_across_domains():
    x, y, z = chain_triple(4000, seed=1, classes=3, domains=2)
    labels = y.argmax(axis=0)
    p0 = np.bincount(labels[z[0] == 1], minlength=3) / (z[0] == 1).sum()
    p1 = np.bincount(labels[z[1] == 1], minlength=3) / (z[1] == 1).sum()
    assert p0[0] > p1[0] and p0[2] < p1[2]


def test_chain_shift_moves_class_means_by_domain():
    x, y, z = chain_triple(4000, seed=2, classes=2, domains=2, shift=2.0,
                           noise_sd=0.3)
    labels = y.argmax(axis=0)
    for c in range(2):
        m0 = x[0, (labels == c) & (z[0] == 1)].mean()
        m1 = x[0, (labels == c) & (z[1] == 1)].mean()
        assert m1 - m0 == pytest.approx(2.0, abs=0.1)


def test_chain_validation():
    with pytest.raises(ConfigError):
        chain_triple(3, seed=0, domains=2)
    with pytest.raises(ConfigError):
        chain_triple(100, seed=0, classes=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: one_hot([-1, 0], 2), InputError, r"label -1 lies outside \[0, 2\)"),
    (lambda: one_hot([0, 2], 2), InputError, r"label 2 lies outside \[0, 2\)"),
    (lambda: one_hot([0.0, 1.5], 2), InputError, r"integers in \[0, 2\), got a 1-d float64"),
    (lambda: one_hot([True, False], 2), InputError, "got a 1-d bool"),
    (lambda: one_hot(1, 2), InputError, "got a 0-d"),
    (lambda: chain_triple(10.5, 0), ConfigError, "n must be an integer"),
    (lambda: chain_triple(60, 0, classes=2.5), ConfigError, "classes must be an integer"),
    (lambda: chain_triple(60, 0, domains=2.0), ConfigError, "domains must be an integer"),
    (lambda: chain_triple(60, 0, noise_sd=float("nan")), ConfigError, "noise_sd must be"),
    (lambda: chain_triple(60, 0, noise_sd=-0.5), ConfigError, "noise_sd must be"),
], ids=["one-hot-negative", "one-hot-too-large", "one-hot-float", "one-hot-bool",
        "one-hot-scalar", "chain-n", "chain-classes", "chain-domains", "chain-nan-noise",
        "chain-negative-noise"])
def test_data_entry_points_name_a_bad_argument(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("shift", [(1.0, 2.0, 3.0), [[1.0], [2.0]]])
def test_chain_rejects_a_shift_that_is_not_a_2_vector(shift):
    with pytest.raises(ConfigError, match="2 entries"):
        chain_triple(60, seed=0, shift=shift)
    with pytest.raises(ConfigError, match="2 entries"):
        SyntheticSpec(kind=SyntheticKind.CONDITIONAL_CHAIN, shift=shift)


@pytest.mark.parametrize("shift", [(0.5, 9.0, 3.0), [[1.0], [2.0]], float("nan")])
def test_moons_reject_a_shift_that_is_not_a_finite_angle(shift):
    with pytest.raises(ConfigError, match="shift"):
        SyntheticSpec(kind=SyntheticKind.ROTATED_MOONS, classes=2, shift=shift)


def test_dataset_type_lives_below_the_trainer():
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(data)))
                if isinstance(node, ast.ImportFrom)}
    assert "trainer" not in imported
    assert trainer.AdaptationDataset is AdaptationDataset


def _bad_dataset_blocks(case):
    rng = np.random.default_rng(3)
    xs, xt = rng.normal(size=(2, 8)), rng.normal(size=(2, 5))
    ys = np.eye(2)[:, np.arange(8) % 2]
    yt = np.eye(2)[:, np.arange(5) % 2]
    if case == "3-d target":
        xt = xt[:, :, None]
    elif case == "empty source":
        xs, ys = xs[:, :0], ys[:, :0]
    elif case == "nan target_truth":
        yt[0, 2] = float("nan")
    elif case == "1-d target":
        xt = xt[0]
    elif case == "soft source labels":
        ys = np.full((2, 8), 0.5)
    elif case == "soft target_truth":
        yt[:, 1] = [0.25, 0.75]
    elif case == "empty target_truth column":
        yt[:, 1] = 0.0
    elif case == "3-class target_truth":
        yt = np.eye(3)[:, np.arange(5) % 3]
    return dict(sources=[(xs, ys)], target=xt, target_truth=yt)


@pytest.mark.parametrize("case,message", [
    ("3-d target", "target block has shape"),
    ("empty source", "source 0 block has shape"),
    ("nan target_truth", "target_truth block contains non-finite"),
    ("1-d target", "source 0 has 2 feature rows, target has 1"),
    ("soft source labels", "source 0 labels block must be one-hot"),
    ("soft target_truth", "target_truth block must be one-hot"),
    ("empty target_truth column", "every target_truth column must have exactly one 1"),
    ("3-class target_truth", "target_truth has 3 rows, expected 2 classes"),
])
def test_dataset_rejects_a_bad_block_by_name(case, message):
    AdaptationDataset(**_bad_dataset_blocks(None))  # the valid blocks pass
    with pytest.raises(InputError, match=message):
        AdaptationDataset(**_bad_dataset_blocks(case))


def test_conditional_chain_wrapper_counts():
    spec = SyntheticSpec(kind=SyntheticKind.CONDITIONAL_CHAIN, classes=3,
                         samples_per_class_per_domain=10, num_sources=2,
                         noise_sd=0.5, seed=0)
    ds = make_conditional_chain(spec)
    assert ds.features.shape[1] == 3 * 3 * 10
    assert ds.domain_matrix.shape[0] == 3


@pytest.mark.parametrize("num_sources", [1, 2])
def test_conditional_chain_dataset_is_the_triple_split_by_domain(num_sources):
    spec = SyntheticSpec(kind=SyntheticKind.CONDITIONAL_CHAIN, classes=3,
                         samples_per_class_per_domain=12, num_sources=num_sources,
                         shift=1.0, noise_sd=0.5, seed=7)
    ds = make_conditional_chain(spec)
    x, y, z = chain_triple(3 * 12 * (num_sources + 1), 7, classes=3,
                           domains=num_sources + 1, shift=1.0, noise_sd=0.5)
    assert ds.num_sources == num_sources
    got = (ds.features, np.hstack([ds.source_labels, ds.target_truth]), ds.domain_matrix)
    for a, b in zip(got, (x, y, z)):
        assert a.flags.c_contiguous
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# file round-trips


def test_save_load_round_trip_bit_identical(tmp_path):
    ds = make_shifted_blobs(blob_spec(num_sources=2, shift=(1.0, -0.5)))
    path = tmp_path / "blobs.csv"
    save_features(ds, path)
    back = load_features(path)
    assert back.num_sources == ds.num_sources
    for (xa, ya), (xb, yb) in zip(ds.sources, back.sources):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(ds.target, back.target)
    np.testing.assert_array_equal(ds.target_truth, back.target_truth)


def test_round_trip_without_target_labels(tmp_path):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(2, 8))
    ys = np.zeros((2, 8))
    ys[rng.integers(0, 2, size=8), np.arange(8)] = 1.0
    ds = AdaptationDataset(sources=[(xs, ys)], target=rng.normal(size=(2, 5)))
    path = tmp_path / "unlabeled.csv"
    save_features(ds, path)
    back = load_features(path)
    assert back.target_truth is None
    np.testing.assert_array_equal(back.target, ds.target)


def test_load_hand_written_file(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(
        "f0,f1,label,domain\n"
        "0.5,-1.25,0,0\n"
        "2.0,3.0,1,0\n"
        "0.25,0.75,-1,1\n"
    )
    ds = load_features(path)
    assert ds.num_sources == 1
    np.testing.assert_array_equal(ds.sources[0][0], [[0.5, 2.0], [-1.25, 3.0]])
    np.testing.assert_array_equal(ds.sources[0][1], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(ds.target, [[0.25], [0.75]])
    assert ds.target_truth is None


@pytest.mark.parametrize("body,fragment", [
    ("", "empty"),
    ("f0,f1,label\n1.0,2.0,0\n", "domain"),
    ("f0,f1,domain\n1.0,2.0,0\n", "label"),
    ("f1,f0,label,domain\n1.0,2.0,0,0\n", "f0"),
    ("f0,f1,label,domain\n1.0,2.0,0\n", "fields"),
    ("f0,f1,label,domain\n1.0,oops,0,0\n", "row 2"),
    ("f0,f1,label,domain\n1.0,2.0,-2,0\n", "label"),
    ("f0,f1,label,domain\n1.0,2.0,0,0\n", "target"),
    ("f0,f1,label,domain\n1.0,2.0,0,0\n3.0,4.0,0,2\n", "no rows"),
    ("f0,f1,label,domain\n1.0,2.0,-1,0\n3.0,4.0,-1,1\n", "label"),
    ("f0,f1,label,domain\n1.0,2.0,0,0\n3.0,4.0,-1,1\n5.0,6.0,0,1\n", "all"),
    ("f0,f1,label,domain\n1.0,2.0,0,-1\n", "domain must be >= 0"),
    ("f0,f1,label,domain\n", "header but no rows"),
    ("f0,f1,label,domain\n1.0,2.0,0,0\n3.0,4.0,-1,0\n5.0,6.0,0,1\n",
     "row 3: source rows must be labeled"),
])
def test_load_rejects_malformed_files(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ParseError, match=fragment):
        load_features(path)


def test_loaded_truth_never_becomes_pseudo_labels(tmp_path):
    # evaluation labels ride along for scoring only
    ds = make_shifted_blobs(blob_spec())
    path = tmp_path / "truth.csv"
    save_features(ds, path)
    back = load_features(path)
    assert back.target_truth is not None
    assert back.pseudo_labels is None
