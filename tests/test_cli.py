import json

import numpy as np
import pytest

from condadapt import cli, data
from condadapt.cli import main
from condadapt.data import (AdaptationDataset, SyntheticKind, SyntheticSpec,
                            make_shifted_blobs, save_features)
from condadapt.model import forward_pass, load_params

FAST_TRAIN = ["--synthetic", "shifted-blobs", "--classes", "2", "--per-class", "10",
              "--pretrain-epochs", "10", "--adapt-epochs", "5",
              "--hidden", "8", "--rep-dim", "4"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return rc, report, captured.err


def strip_timing(report):
    out = dict(report)
    out.pop("wall_time_s")
    return out


# synthetic families


@pytest.mark.parametrize("family,kind,classes,shift", [
    ("shifted-blobs", SyntheticKind.SHIFTED_BLOBS, 4, 1.25),
    ("rotated-moons", SyntheticKind.ROTATED_MOONS, 2, 1.25),
    ("chain-ci", SyntheticKind.CONDITIONAL_CHAIN, 3, 0.0),
    ("chain-dep", SyntheticKind.CONDITIONAL_CHAIN, 3, 1.0),
])
def test_family_defaults_match_the_explicit_spec(family, kind, classes, shift):
    # default flags: 50 per class, noise sd 0.5, one source, seed 0
    args = cli.build_parser().parse_args(["measure", "--synthetic", family,
                                          "--stat", "cond"])
    spec = SyntheticSpec(kind=kind, classes=classes, samples_per_class_per_domain=50,
                         shift=shift, noise_sd=0.5, num_sources=1, seed=0)
    got, want = cli._dataset_from_args(args, args.seed), data.generate(spec)
    np.testing.assert_array_equal(got.features, want.features)
    np.testing.assert_array_equal(np.hstack([got.source_labels, got.target_truth]),
                                  np.hstack([want.source_labels, want.target_truth]))
    np.testing.assert_array_equal(got.domain_matrix, want.domain_matrix)


@pytest.mark.parametrize("family,kind,shift", [
    ("rotated-moons", SyntheticKind.ROTATED_MOONS, 1.25),  # an angle: radians
    ("shifted-blobs", SyntheticKind.SHIFTED_BLOBS, 0.25),  # an offset: 2.5 sd
])
def test_default_shift_at_another_noise_sd(family, kind, shift):
    args = cli.build_parser().parse_args(["measure", "--synthetic", family, "--classes", "2",
                                          "--noise-sd", "0.1", "--stat", "mmd"])
    spec = SyntheticSpec(kind=kind, classes=2, samples_per_class_per_domain=50,
                         shift=shift, noise_sd=0.1, num_sources=1, seed=0)
    got, want = cli._dataset_from_args(args, args.seed), data.generate(spec)
    np.testing.assert_array_equal(got.features, want.features)


# measure


def test_measure_nocco_fields_and_pvalue(capsys):
    rc, report, _ = run(capsys, ["measure", "--synthetic", "chain-dep",
                                 "--stat", "nocco", "--per-class", "20",
                                 "--permutations", "100", "--seed", "3"])
    assert rc == 0
    res = report["results"]
    assert res["kind"] == "nocco"
    assert res["n"] == 120 and res["epsilon"] == 1e-4
    assert res["statistic"] > 0
    assert 0 < res["pvalue"] <= 1
    assert report["seed"] == 3
    assert report["config"]["stat"] == "nocco"


def test_measure_cond_separates_chain_modes(capsys):
    # conditionally independent chain: large p; shifted chain: small p
    args = ["measure", "--stat", "cond", "--per-class", "25",
            "--permutations", "99", "--seed", "5"]
    rc, ci, _ = run(capsys, args + ["--synthetic", "chain-ci"])
    assert rc == 0
    rc, dep, _ = run(capsys, args + ["--synthetic", "chain-dep"])
    assert rc == 0
    assert ci["results"]["pvalue"] > 0.05
    assert dep["results"]["pvalue"] <= 0.05


def test_measure_mmd_and_a_distance_reports(capsys):
    base = ["measure", "--synthetic", "shifted-blobs", "--classes", "2",
            "--per-class", "30", "--seed", "1"]
    rc, rep, _ = run(capsys, base + ["--stat", "mmd"])
    assert rc == 0
    assert rep["results"]["kind"] == "mmd" and rep["results"]["statistic"] > 0
    rc, rep, _ = run(capsys, base + ["--stat", "a-distance"])
    assert rc == 0
    res = rep["results"]
    assert res["kind"] == "a-distance"
    assert 0 <= res["d_a"] <= 2
    assert len(res["per_class"]) == 2


CHAIN_TINY = ["--per-class", "10", "--pretrain-epochs", "5", "--adapt-epochs", "2",
              "--hidden", "8", "--rep-dim", "4"]


@pytest.mark.parametrize("argv", [
    ["train", "--synthetic", "chain-dep", "--baseline"] + CHAIN_TINY,
    ["sweep", "--synthetic", "chain-ci", "--beta1-grid", "0,0.01",
     "--beta2-grid", "0.005"] + CHAIN_TINY,
    ["measure", "--synthetic", "chain-ci", "--per-class", "10", "--stat", "mmd"],
    ["measure", "--synthetic", "chain-ci", "--per-class", "10", "--stat", "a-distance"],
], ids=["train", "sweep", "mmd", "a-distance"])
def test_chains_run_in_every_command(argv, capsys):
    # a chain's last domain is the target, labeled for evaluation
    rc, rep, err = run(capsys, argv)
    assert rc == 0, err
    res = rep["results"]
    if argv[0] == "train":
        assert 0.0 <= res["accuracy_mean"] <= 1.0
        assert len(res["baseline"]["per_trial_accuracy"]) == 1
    elif argv[0] == "sweep":
        assert res["cells"] == 2 and all("rep_cond" in r for r in res["rows"])
    elif argv[-1] == "mmd":
        assert res["statistic"] > 0 and res["n"] == 2 * 3 * 10
    else:
        assert 0 <= res["d_a"] <= 2 and len(res["per_class"]) == 3


def test_measure_rejects_unlabeled_target_for_cond(tmp_path, capsys):
    rng = np.random.default_rng(0)
    ys = np.zeros((2, 10))
    ys[rng.integers(0, 2, 10), np.arange(10)] = 1.0
    ds = AdaptationDataset(sources=[(rng.normal(size=(2, 10)), ys)],
                           target=rng.normal(size=(2, 6)))
    path = tmp_path / "unlabeled.csv"
    save_features(ds, path)
    rc, report, err = run(capsys, ["measure", "--input", str(path), "--stat", "cond"])
    assert rc == 1
    assert report is None
    assert "unlabeled" in err


def test_exit_code_1_on_missing_file(capsys):
    rc, report, err = run(capsys, ["measure", "--input", "/nonexistent/x.csv",
                                   "--stat", "nocco"])
    assert rc == 1 and report is None and "error" in err


@pytest.mark.parametrize("stat", ["nocco", "cond", "per-class-nocco"])
def test_exit_code_1_on_a_negative_permutation_count(stat, capsys):
    rc, report, err = run(capsys, ["measure", "--synthetic", "chain-dep", "--per-class",
                                   "10", "--stat", stat, "--permutations", "-1"])
    assert rc == 1 and report is None and "permutations" in err


@pytest.mark.parametrize("flags, name", [
    (["--synthetic", "shifted-blobs", "--shift", "nan"], "shift"),
    (["--synthetic", "chain-dep", "--shift", "inf"], "shift"),
    (["--synthetic", "chain-ci", "--noise-sd", "inf"], "noise_sd"),
])
def test_exit_code_1_names_a_non_finite_spec_value(flags, name, capsys):
    rc, report, err = run(capsys, ["measure", *flags, "--stat", "mmd"])
    assert rc == 1 and report is None
    assert f"error: {name} must be" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--synthetic", "chain-dep", "--stat", "cond"],
    ["measure", "--synthetic", "chain-dep", "--stat", "nocco", "--permutations", "3"],
    ["train", *FAST_TRAIN],
    ["sweep", *FAST_TRAIN, "--beta1-grid", "0", "--beta2-grid", "0"],
])
def test_exit_code_1_names_a_negative_seed(argv, capsys):
    rc, report, err = run(capsys, [*argv, "--per-class", "5", "--seed", "-1"])
    assert rc == 1 and report is None
    assert "error: seed must be an integer >= 0" in err


def test_exit_code_1_names_a_negative_seed_for_a_feature_file(tmp_path, capsys):
    path = tmp_path / "ds.csv"
    save_features(make_shifted_blobs(SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS,
                                                   samples_per_class_per_domain=10)), path)
    for argv in (["measure", "--stat", "nocco", "--permutations", "3"],
                 ["measure", "--stat", "a-distance"],
                 ["train", "--pretrain-epochs", "1", "--adapt-epochs", "1"]):
        rc, report, err = run(capsys, [*argv, "--input", str(path), "--seed", "-1"])
        assert rc == 1 and report is None and "seed must be an integer >= 0" in err


def test_exit_code_2_on_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--synthetic", "shifted-blobs", "--stat", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["train"] + FAST_TRAIN + ["--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep"] + FAST_TRAIN + ["--beta1-grid", ",", "--beta2-grid", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


# train


def test_train_reports_are_deterministic(capsys):
    argv = ["train"] + FAST_TRAIN + ["--trials", "2", "--seed", "11"]
    rc1, rep1, _ = run(capsys, argv)
    rc2, rep2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert strip_timing(rep1) == strip_timing(rep2)
    res = rep1["results"]
    assert len(res["per_trial_accuracy"]) == 2
    assert res["accuracy_mean"] == pytest.approx(
        np.mean(res["per_trial_accuracy"]))


def test_train_baseline_deltas_vanish_when_weights_are_zero(capsys):
    # both arms run identical pure-CE fits, so every delta must be exactly 0
    argv = ["train"] + FAST_TRAIN + ["--trials", "2", "--baseline",
                                     "--beta1", "0", "--beta2", "0"]
    rc, rep, _ = run(capsys, argv)
    assert rc == 0
    res = rep["results"]
    assert res["baseline"]["per_trial_accuracy"] == res["per_trial_accuracy"]
    assert res["baseline"]["per_trial_delta"] == [0.0, 0.0]


def test_train_model_out_respects_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONDADAPT_OUTDIR", str(tmp_path))
    argv = ["train"] + FAST_TRAIN + ["--model-out", "model.txt",
                                     "--out", "report.json"]
    rc = main(argv)
    capsys.readouterr()
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["model_file"] == "model.txt"
    params = load_params(tmp_path / "model.txt")
    probs = forward_pass(params, np.zeros((2, 3))).probs
    assert probs.shape == (2, 3)


def test_train_out_absolute_path_ignores_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONDADAPT_OUTDIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    rc = main(["train"] + FAST_TRAIN + ["--out", str(target)])
    capsys.readouterr()
    assert rc == 0 and target.exists()


def test_train_loads_saved_dataset(tmp_path, capsys):
    spec = SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS, classes=2,
                         samples_per_class_per_domain=10, noise_sd=0.5,
                         shift=(1.0, 0.0), seed=0)
    path = tmp_path / "ds.csv"
    save_features(make_shifted_blobs(spec), path)
    rc, rep, _ = run(capsys, ["train", "--input", str(path),
                              "--pretrain-epochs", "5", "--adapt-epochs", "2",
                              "--hidden", "8", "--rep-dim", "4"])
    assert rc == 0
    assert rep["results"]["per_trial_accuracy"][0] is not None


def test_train_on_an_unlabeled_target_reports_no_accuracy(tmp_path, capsys):
    spec = SyntheticSpec(kind=SyntheticKind.SHIFTED_BLOBS, samples_per_class_per_domain=10)
    labeled = make_shifted_blobs(spec)
    path = tmp_path / "unlabeled.csv"
    save_features(AdaptationDataset(sources=labeled.sources, target=labeled.target), path)
    rc, rep, err = run(capsys, ["train", "--input", str(path), "--trials", "2",
                                "--pretrain-epochs", "2", "--adapt-epochs", "2",
                                "--hidden", "8", "--rep-dim", "4"])
    assert rc == 0
    assert rep["results"]["per_trial_accuracy"] == [None, None]
    assert rep["results"]["accuracy_mean"] is None
    assert rep["results"]["accuracy_stderr"] is None
    assert "mean accuracy: -" in err


# sweep


def test_sweep_rows_cover_sorted_grid(capsys):
    argv = ["sweep"] + FAST_TRAIN + ["--beta1-grid", "0.1,0.01",
                                     "--beta2-grid", "0.005,0",
                                     "--adapt-epochs", "2"]
    rc, rep, _ = run(capsys, argv)
    assert rc == 0
    rows = rep["results"]["rows"]
    assert rep["results"]["cells"] == 4
    cells = [(r["beta1"], r["beta2"], r["epsilon"]) for r in rows]
    assert cells == sorted(cells)
    assert {c[:2] for c in cells} == {(0.01, 0.0), (0.01, 0.005),
                                      (0.1, 0.0), (0.1, 0.005)}
    for r in rows:
        assert "rep_nocco" in r and "rep_cond" in r


def test_single_cell_sweep_matches_train(capsys):
    common = FAST_TRAIN + ["--seed", "2"]
    rc, sweep_rep, _ = run(capsys, ["sweep"] + common +
                           ["--beta1-grid", "0.01", "--beta2-grid", "0.005"])
    assert rc == 0
    rc, train_rep, _ = run(capsys, ["train"] + common +
                           ["--beta1", "0.01", "--beta2", "0.005"])
    assert rc == 0
    row = sweep_rep["results"]["rows"][0]
    assert row["accuracy_mean"] == train_rep["results"]["accuracy_mean"]


def test_sweep_cells_are_paired_on_the_same_trial_seeds(capsys):
    # every cell fits the seeds seed .. seed+T-1, so each row equals a train
    # run with that cell's weights and the sweep's own seeds
    common = FAST_TRAIN + ["--seed", "4", "--trials", "2", "--adapt-epochs", "2"]
    rc, sweep_rep, _ = run(capsys, ["sweep"] + common +
                           ["--beta1-grid", "0,0.01", "--beta2-grid", "0.005"])
    assert rc == 0
    assert sweep_rep["results"]["trial_seeds"] == [4, 5]
    for row in sweep_rep["results"]["rows"]:
        rc, train_rep, _ = run(capsys, ["train"] + common +
                               ["--beta1", str(row["beta1"]), "--beta2", "0.005"])
        assert rc == 0
        assert row["accuracy_mean"] == train_rep["results"]["accuracy_mean"]
        assert row["accuracy_stderr"] == train_rep["results"]["accuracy_stderr"]
