import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from condadapt import measures
from condadapt.data import chain_triple, one_hot
from condadapt.errors import ConfigError, DegenerateDataError, InputError, NumericalError
from condadapt.gradients import cell_terms, cond_objective, cond_values, regularized_factor
from condadapt.kernels import (
    GramMatrix,
    KernelConfig,
    gram,
    label_gram,
    product_gram,
)
from condadapt.measures import (
    AdistanceReport,
    StatKind,
    a_distance,
    cond,
    cond_from_features,
    convergence_probe,
    mmd,
    nocco_from_features,
    per_class_nocco_from_features,
)
from support import (
    centered,
    dense_cond_null,
    dense_cond_statistic,
    dense_per_class_null,
    dense_plain_null,
    shuffle_table,
    within_class_shuffles,
)


def random_features(seed, d=3, n=30, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(d, n))


def plain_of_grams(kx, kz, epsilon):
    """Plain statistic Tr(R_Z R_X) of given Grams: ``cond`` with an all-ones
    K_Y and one label class holding every sample."""
    return cond(kx, kz, GramMatrix(np.ones((kx.n, kx.n))), epsilon,
                labels=np.zeros(kx.n, dtype=int))


# nocco


def test_nocco_two_by_two_closed_form():
    # identical 1-D variables at distance 1, whose fitted sigma^2 is the mean
    # squared distance 1/2: off-diagonal a = e^-2, centered eigenvalue (1 - a),
    # normalized to (1-a)/((1-a) + n*eps), squared by the trace
    eps = 0.05
    x = np.array([[0.0, 1.0]])
    a = math.exp(-2.0)
    expected = ((1.0 - a) / ((1.0 - a) + 2.0 * eps)) ** 2
    rep = nocco_from_features(x, x, eps)
    assert rep.statistic == pytest.approx(expected, rel=1e-12)
    assert rep.kind is StatKind.NOCCO
    assert rep.n == 2
    assert rep.permutation_pvalue is None


def test_nocco_self_dependence_eigen_oracle():
    x = random_features(1, n=40)
    k = gram(x, KernelConfig.from_data(x))
    lam = np.linalg.eigvalsh(centered(k.entries))
    expected = float(np.sum((lam / (lam + 40 * 1e-3)) ** 2))
    assert plain_of_grams(k, k, 1e-3).statistic == pytest.approx(expected, rel=1e-10)
    assert plain_of_grams(k, k, 1e-3).statistic > 0


def test_nocco_independent_null_not_rejected():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 500))
    z = one_hot(rng.integers(0, 2, size=500), 2)
    rep = nocco_from_features(x, z, 1e-3, permutations=500, seed=0)
    assert rep.permutation_pvalue > 0.05


def test_nocco_permutation_shortcut_matches_brute_rebuild():
    # dual route: the null's shortcut must equal permuting the raw domain
    # columns and recomputing the statistic from scratch
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 60))
    z = one_hot(rng.integers(0, 2, size=60), 2)
    eps = 1e-3
    rep = nocco_from_features(x, z, eps, permutations=40, seed=9)

    stat = nocco_from_features(x, z, eps).statistic
    hits = 0
    for perm in shuffle_table([np.arange(60)], 60, 40, 9).T:
        rep_stat = nocco_from_features(x, z[:, perm], eps).statistic
        if rep_stat >= stat:
            hits += 1
    assert rep.permutation_pvalue == pytest.approx((1 + hits) / 41.0, abs=1e-15)


def test_nocco_size_mismatch():
    x = random_features(2, n=4)
    z3 = one_hot([0, 1, 0], 2)
    with pytest.raises(InputError):
        nocco_from_features(x, z3, 1e-3)
    with pytest.raises(InputError):
        per_class_nocco_from_features(x, z3, np.zeros(4, dtype=int), 1e-3)
    with pytest.raises(InputError, match="labels length"):
        per_class_nocco_from_features(x, one_hot([0, 1, 0, 1], 2), np.zeros(3, dtype=int),
                                      1e-3)


def test_nocco_of_a_constant_domain_kernel_is_zero_with_p_one():
    # one cell (c = 1): K_Z centers to 0, so R_Z = 0, and no shuffle moves
    # a sample out of its cell
    x = random_features(3, n=20)
    rep = nocco_from_features(x, np.ones((1, 20)), 1e-2, permutations=30, seed=4)
    assert rep.statistic == 0.0
    assert rep.permutation_pvalue == 1.0


# cond


def test_cond_constant_conditioner_reduces_to_plain():
    # constant conditioning labels: all-ones Gram, identical statistics
    for seed in range(5):
        x = random_features(seed, d=2, n=50)
        z = one_hot(np.random.default_rng(seed + 100).integers(0, 3, size=50), 3)
        y = one_hot(np.zeros(50, dtype=int), 1)
        plain = nocco_from_features(x, z, 1e-3).statistic
        conditional = cond_from_features(x, y, z, 1e-3).statistic
        assert abs(conditional - plain) <= 1e-8 * plain


def test_cond_self_conditioning_bounded_by_plain():
    # conditioning on the tested blocks themselves can only remove dependence
    for seed in range(10):
        x = random_features(seed, n=25)
        k = gram(x, KernelConfig.from_data(x))
        bounded = cond(k, k, k, 1e-2).statistic
        unconditional = plain_of_grams(k, k, 1e-2).statistic
        assert bounded <= unconditional + 1e-12
        assert bounded >= -1e-10


def test_cond_chain_discrimination_single_seed():
    x, y, z = chain_triple(600, 0, classes=3, domains=2, shift=0.0, noise_sd=0.5)
    labels = np.argmax(y, axis=0)
    eps = 600.0 ** -0.25
    ci = cond_from_features(x, y, z, eps, labels=labels, permutations=300, seed=0)
    assert ci.permutation_pvalue > 0.05

    x, y, z = chain_triple(600, 0, classes=3, domains=2, shift=1.0, noise_sd=0.5)
    labels = np.argmax(y, axis=0)
    dep = cond_from_features(x, y, z, eps, labels=labels, permutations=300, seed=0)
    assert dep.permutation_pvalue < 0.01


def test_cond_permutation_requires_labels():
    x = random_features(0, n=20)
    k = gram(x, KernelConfig.from_data(x))
    with pytest.raises(InputError):
        cond(k, k, k, 1e-3, permutations=10)


def test_cond_within_class_shortcut_matches_brute_rebuild():
    # dual route for the conditional null: class-preserving shuffles of the raw
    # domain indicators, with every Gram and normalization rebuilt per replicate
    rng = np.random.default_rng(17)
    n = 48
    x = rng.normal(size=(2, n))
    labels = rng.integers(0, 2, size=n)
    y = one_hot(labels, 2)
    z = one_hot(rng.integers(0, 2, size=n), 2)
    eps = 1e-2
    kx = gram(x, KernelConfig.from_data(x))
    ky = label_gram(y)
    rep = cond(product_gram(kx, ky), product_gram(label_gram(z), ky), ky, eps,
               labels=labels, permutations=30, seed=5)

    stat = cond(product_gram(kx, ky), product_gram(label_gram(z), ky), ky, eps).statistic
    hits = 0
    for perm in within_class_shuffles(labels, 30, 5).T:
        rep_stat = cond(product_gram(kx, ky), product_gram(label_gram(z[:, perm]), ky),
                        ky, eps).statistic
        if rep_stat >= stat:
            hits += 1
    assert rep.permutation_pvalue == pytest.approx((1 + hits) / 31.0, abs=1e-15)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 32),
       y_kind=st.sampled_from(["hard", "constant", "continuous"]),
       z_kind=st.sampled_from(["hard", "constant", "continuous", "constant-zt"]),
       epsilon=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
       permutations=st.integers(1, 30), block_columns=st.integers(1, 12))
def test_cond_cells_match_dense_oracle_and_brute_null(seed, n, y_kind, z_kind, epsilon,
                                                      permutations, block_columns):
    # up to 4 classes x 3 domains at small n leaves empty classes and singleton
    # cells; continuous blocks give one cell per sample; "constant" makes
    # K_Zt = K_Y and "constant-zt" makes K_Zt itself constant
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(int(rng.integers(1, 4)), n))
    if y_kind == "hard":
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        y = one_hot(labels, 4)
    elif y_kind == "constant":
        labels = np.zeros(n, dtype=int)
        y = np.ones((1, n))
    else:
        labels = np.arange(n)
        y = rng.normal(size=(2, n))
    if z_kind == "hard":
        z = one_hot(rng.integers(0, int(rng.integers(1, 4)), size=n), 3)
    elif z_kind == "continuous":
        z = rng.normal(size=(2, n))
    else:
        z = np.ones((1, n))
    ky = label_gram(y)
    kxt = product_gram(gram(x, KernelConfig.from_data(x)), ky)
    kzt = (GramMatrix(np.ones((n, n))) if z_kind == "constant-zt"
           else product_gram(label_gram(z), ky))

    # a tiny column budget splits the replicates into blocks of every size,
    # with the last block short whenever the count is not a multiple
    with patch.object(measures, "_BLOCK_COLUMNS", block_columns):
        rep = cond(kxt, kzt, ky, epsilon, labels=labels, permutations=permutations,
                   seed=seed)
    expected = dense_cond_statistic(kxt.entries, kzt.entries, ky.entries, epsilon)
    # the reference solves in np.longdouble; the absolute term covers
    # statistics at or near zero, where the float64 route's rounding error is
    # absolute, not relative
    assert abs(rep.statistic - expected) <= 1e-11 * abs(expected) + 1e-15 / epsilon

    hits = 0
    for perm in within_class_shuffles(labels, permutations, seed).T:
        rebuilt = cond(kxt, GramMatrix(kzt.entries[np.ix_(perm, perm)]), ky, epsilon)
        hits += rebuilt.statistic >= rep.statistic
    assert rep.permutation_pvalue == (1 + hits) / (1 + permutations)


def soft_columns(rng, k, n):
    logits = rng.normal(size=(k, n))
    return np.exp(logits) / np.exp(logits).sum(axis=0)


def dyadic_soft_columns(rng, n):
    """Soft 4-class columns with entries 1/2, 1/4, 1/8, 1/8 in random order,
    whose squared distances are exact."""
    return np.stack([rng.permutation([0.5, 0.25, 0.125, 0.125]) for _ in range(n)],
                    axis=1)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 32),
       y_kind=st.sampled_from(["one-hot", "soft", "softmax", "continuous", "constant"]),
       z_kind=st.sampled_from(["one-hot", "soft", "continuous", "constant"]),
       epsilon=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
       permutations=st.integers(1, 30))
def test_features_route_matches_gram_route_and_dense_oracle(seed, n, y_kind, z_kind,
                                                            epsilon, permutations):
    # up to 4 classes x 3 domains at small n leaves empty classes (all-zero
    # label rows) and singleton cells; one-hot domains are interchangeable
    # cells; soft label columns (dyadic or softmax) are shared per class,
    # soft domains and continuous blocks give one cell per sample
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(int(rng.integers(1, 4)), n))
    if y_kind in ("one-hot", "soft", "softmax"):
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        if y_kind == "one-hot":
            y = one_hot(labels, 4)
        elif y_kind == "soft":
            y = dyadic_soft_columns(rng, 4)[:, labels]
        else:
            y = soft_columns(rng, 4, 4)[:, labels]
    elif y_kind == "continuous":
        labels = np.arange(n)
        y = rng.normal(size=(2, n))
    else:
        labels = np.zeros(n, dtype=int)
        y = np.ones((1, n))
    if z_kind == "one-hot":
        z = one_hot(rng.integers(0, int(rng.integers(1, 4)), size=n), 3)
    elif z_kind == "soft":
        z = soft_columns(rng, 3, n)
    elif z_kind == "continuous":
        z = rng.normal(size=(2, n))
    else:
        z = np.ones((1, n))

    rep = cond_from_features(x, y, z, epsilon, labels=labels, permutations=permutations,
                             seed=seed)
    ky = label_gram(y)
    kx = gram(x, KernelConfig.from_data(x))
    via_grams = cond(product_gram(kx, ky), product_gram(label_gram(z), ky), ky, epsilon,
                     labels=labels, permutations=permutations, seed=seed)
    expected = dense_cond_statistic(kx.entries * ky.entries,
                                    label_gram(z).entries * ky.entries, ky.entries, epsilon)
    gap = abs(rep.statistic - via_grams.statistic)
    assert gap <= 1e-11 * abs(via_grams.statistic) + 1e-15
    # the route's error is bounded as in the Gram-route test above
    assert abs(rep.statistic - expected) <= 1e-11 * abs(expected) + 1e-15 / epsilon
    assert rep.permutation_pvalue == via_grams.permutation_pvalue
    assert (rep.kind, rep.n, rep.epsilon) == (StatKind.COND, n, epsilon)


@pytest.mark.parametrize("block,value,name", [
    ("x", np.nan, "feature"), ("y", np.inf, "label"), ("z", -np.inf, "domain"),
    ("y", "short", "label"), ("z", "short", "domain"),
])
def test_features_route_rejects_bad_blocks_by_name(block, value, name):
    rng = np.random.default_rng(7)
    blocks = {"x": rng.normal(size=(2, 12)), "y": one_hot(np.arange(12) % 3, 3),
              "z": one_hot(np.arange(12) % 2, 2)}
    if value == "short":
        blocks[block] = blocks[block][:, :-1]
    else:
        blocks[block][0, 5] = value
    with pytest.raises(InputError, match=name):
        cond_from_features(blocks["x"], blocks["y"], blocks["z"], 1e-2)


def test_features_route_rejects_a_label_class_with_mixed_label_columns():
    x = random_features(4, n=12)
    classes = np.arange(12) % 3
    y, z = one_hot(classes, 3), one_hot(np.arange(12) % 2, 2)
    merged = np.minimum(classes, 1)  # classes 1 and 2 share a label
    with pytest.raises(InputError, match="labels"):
        cond_from_features(x, y, z, 1e-2, labels=merged, permutations=5)
    with pytest.raises(InputError, match="labels"):
        cond_from_features(x, y, z, 1e-2, permutations=5)
    with pytest.raises(InputError, match="labels"):
        cond_from_features(x, y, z, 1e-2, labels=classes[:-1], permutations=5)
    with pytest.raises(ConfigError):
        cond_from_features(x, y, z, 0.0)
    finer = np.arange(12) % 6  # splitting a class still fixes K_Y
    assert cond_from_features(x, y, z, 1e-2, labels=finer,
                              permutations=5).permutation_pvalue is not None


def test_cond_statistic_exact_when_domain_is_a_function_of_the_label():
    # the 4-sample Z = Y instance of the gradient tests; the value comes from a
    # 50-digit evaluation of the dense formulas with the same bandwidths
    xre = np.array([[0.3, -1.1, 0.8, 1.7], [-0.4, 0.9, 0.2, -1.3]])
    y = one_hot([0, 1, 1, 0], 2)
    rep = cond_from_features(xre, y, y.copy(), 1e-4)
    assert rep.statistic == pytest.approx(5.3448637245882349e-8, rel=1e-12, abs=0.0)


def test_cond_null_is_all_ties_when_the_shuffled_gram_is_unchanged():
    # Z a function of Y: every within-class shuffle leaves each sample's
    # (class, domain) cell unchanged, so every replicate equals the observed
    # statistic
    for seed in range(5):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=60)
        x = rng.normal(size=(2, 60))
        rep = cond_from_features(x, one_hot(labels, 3), one_hot(labels % 2, 2), 1e-2,
                                 labels=labels, permutations=50, seed=seed)
        assert rep.permutation_pvalue == 1.0
    # one class, three samples in three one-hot domains: shuffles move samples
    # between cells, but K_Z is the same for every pair of distinct domains,
    # so the shuffled K_Zt equals the observed one
    x = random_features(9, n=3)
    rep = cond_from_features(x, np.ones((1, 3)), np.eye(3), 1e-2,
                             labels=np.zeros(3, dtype=int), permutations=20, seed=0)
    assert rep.permutation_pvalue == 1.0
    # the same with up to 8 samples: these shuffles are evaluated, and many
    # come out an ulp below the statistic, so the exact K_Zt check must count
    # them (without it most of these p-values fall below 1)
    for seed in range(3):
        for n in (4, 5, 6, 8):
            x = np.random.default_rng(seed).normal(size=(2, n))
            rep = cond_from_features(x, np.ones((1, n)), np.eye(n), 1e-1,
                                     labels=np.zeros(n, dtype=int), permutations=40,
                                     seed=seed)
            assert rep.permutation_pvalue == 1.0


@pytest.mark.parametrize("evaluator", ["solve", "sums"])
def test_null_is_all_ties_when_the_shuffle_fixes_the_features(evaluator):
    # X a function of the label and a continuous Z: every within-class shuffle
    # leaves the feature columns, so K_Xt, unchanged, and its replicate equals
    # the statistic though the shuffled K_Zt differs
    cost = 10 ** 9 if evaluator == "solve" else -10 ** 9
    for seed in range(3):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=60)
        x = rng.normal(size=(2, 3))[:, labels]
        z = rng.normal(size=(1, 60))
        with patch.object(measures, "_BINCOUNT_FLOPS", cost):
            rep = cond_from_features(x, one_hot(labels, 3), z, 1e-2, labels=labels,
                                     permutations=50, seed=seed)
            assert rep.permutation_pvalue == 1.0
            rep = per_class_nocco_from_features(x, z, labels, 1e-2, permutations=50,
                                                seed=seed)
            assert rep.permutation_pvalue == 1.0


def null_layout(layout, rng, n):
    """Features, label classes and domain block of one label-group layout."""
    x = rng.normal(size=(2, n))
    labels = rng.integers(0, 3, size=n)
    domains = rng.integers(0, 4 if layout == "four-domains" else 2, size=n)
    if layout == "single-cell-groups":  # classes 0 and 1 each in one domain
        domains = np.where(labels < 2, labels, domains)
    elif layout == "dropped-group":
        # class 0's domain-0 cell is the largest and class 0 has a second cell
        labels = np.where(np.arange(n) < n // 2, 0, 1 + np.arange(n) % 2)
        domains[:n // 2] = np.arange(n // 2) == 0
    z = rng.normal(size=(1, n)) if layout == "continuous-z" else one_hot(domains, 4)
    return x, labels, z


NULL_LAYOUTS = ["one-group", "single-cell-groups", "dropped-group", "four-domains",
                "continuous-z", "soft-labels", "grams"]


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(10, 40),
       layout=st.sampled_from(NULL_LAYOUTS), epsilon=st.sampled_from([1e-1, 1e-2, 1e-3]),
       permutations=st.integers(1, 30))
def test_moved_columns_give_the_full_solve_replicates(seed, n, layout, epsilon,
                                                      permutations):
    # the triangular-solve evaluator solves only the c - G columns a shuffle
    # within the classes can move; its replicates equal cond_values over all
    # c - 1 columns within rounding, and its statistic is that call's
    rng = np.random.default_rng(seed)
    x, labels, z = null_layout(layout, rng, n)
    y = np.ones((1, n)) if layout == "one-group" else one_hot(labels, 3)
    if layout == "soft-labels":  # one soft label column per class
        y = rng.dirichlet(np.ones(3), size=3).T[:, labels]
    calls = []
    real = measures._null_core

    def spy(kxt, *args):
        calls.append((kxt.copy(), *args))
        calls[-1] += real(kxt, *args)
        return calls[-1][-2:]

    with patch.object(measures, "_BINCOUNT_FLOPS", 10 ** 9), \
            patch.object(measures, "_null_core", spy):
        if layout == "grams":
            ky = label_gram(y)
            kxt = product_gram(gram(x, KernelConfig.from_data(x)), ky)
            given_kxt = kxt.entries.copy()
            rep = cond(kxt, product_gram(label_gram(z), ky), ky, epsilon, labels=labels,
                       permutations=permutations, seed=seed)
            assert np.array_equal(kxt.entries, given_kxt)  # the caller's Gram is kept
        else:
            rep = cond_from_features(x, y, z, epsilon, labels=labels,
                                     permutations=permutations, seed=seed)
    [(kxt, cell, group, my, mzt, eps, perms, _, stat, values)] = calls
    ridge = n * eps
    v, w, q, keep = cell_terms(cell, my, mzt, ridge)
    for c in np.unique(labels):  # every class lies in one label group
        assert np.unique(group[cell[labels == c]]).shape[0] == 1
    dropped = np.delete(group, keep)[0]
    assert {"one-group": my is None and np.all(group == 0),
            "single-cell-groups": np.any(np.bincount(group) == 1),
            "dropped-group": np.count_nonzero(group == dropped) > 1,
            "four-domains": np.unique(z, axis=1).shape[1] > 2,
            "continuous-z": mzt.shape[0] == n,
            "soft-labels": np.unique(group).shape[0] == np.unique(y, axis=1).shape[1],
            "grams": True}[layout]
    low, r = regularized_factor(kxt, ridge)
    assert stat == rep.statistic == cond_values(low, r, v, q, w, ridge)[0]
    full = np.array([cond_values(low, r, v[perm], q, w, ridge)[0] for perm in perms.T])
    assert np.all(np.abs(values - full) <= 1e-12 * max(abs(stat), np.sum(q * w)))
    # an exact tie is the statistic's value on both paths
    full[values == stat] = stat
    assert rep.permutation_pvalue == measures._pvalue(stat, full)


def test_a_replicate_solves_the_cell_count_less_the_label_groups():
    # 3 classes x 2 domains: c = 6 cells in G = 3 label groups, so each
    # replicate solves 3 columns, not c - 1 = 5; the 2 group sums once
    x, y, z = chain_triple(120, 3, classes=3, domains=2, shift=1.0)
    widths = []
    real = scipy.linalg.solve_triangular

    def spy(low, b, **kw):
        if b.ndim == 2:  # not the factor's solve of the ones vector
            widths.append(b.shape[1])
        return real(low, b, **kw)

    with patch.object(scipy.linalg, "solve_triangular", spy):
        cond_from_features(x, y, z, 1e-2, labels=y.argmax(axis=0), permutations=10)
    # the statistic's c - 1 columns, the group sums, then 10 replicates of 3
    assert widths == [5, 2, 10 * 3]


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(10, 40),
       layout=st.sampled_from(NULL_LAYOUTS[:-1]),  # the features route's layouts
       epsilon=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]), permutations=st.integers(1, 30))
def test_unprojected_replicates_match_the_dense_null(seed, n, layout, epsilon, permutations):
    # the solve evaluator forms F^T F from the unprojected solve, G^T G - u u^T;
    # each replicate must match the dense longdouble null of the same shuffle
    # within the statistic's bound, and the p-value the dense one
    rng = np.random.default_rng(seed)
    x, labels, z = null_layout(layout, rng, n)
    y = np.ones((1, n)) if layout == "one-group" else one_hot(labels, 3)
    if layout == "soft-labels":  # one soft label column per class
        y = rng.dirichlet(np.ones(3), size=3).T[:, labels]
    calls = []
    real = measures._null_core

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    with patch.object(measures, "_BINCOUNT_FLOPS", 10 ** 9), \
            patch.object(measures, "_null_core", spy):
        rep = cond_from_features(x, y, z, epsilon, labels=labels, permutations=permutations,
                                 seed=seed)
    [(_, values)] = calls
    ky = label_gram(y).entries
    kxt = gram(x, KernelConfig.from_data(x)).entries * ky
    perms = list(within_class_shuffles(labels, permutations, seed).T)
    stat, reps, ties = dense_cond_null(kxt, label_gram(z).entries * ky, ky, epsilon, perms)
    assert np.all(np.abs(values - reps) <= 1e-11 * np.abs(reps) + 1e-15 / epsilon)
    hits = np.count_nonzero((reps >= stat) | ties)
    assert rep.permutation_pvalue == (1 + hits) / (1 + permutations)


@pytest.mark.parametrize("classes", [1, 3])
def test_shuffle_tables_of_neighbouring_seeds_share_no_column(classes):
    # one spawned stream per seed: seed s + 1 does not replay seed s's
    # replicates shifted by one
    labels = np.arange(600) % classes
    groups = [np.flatnonzero(labels == c) for c in range(classes)]
    first, second = (measures._shuffles(groups, 600, 50, seed) for seed in (0, 1))
    assert not np.any(np.all(first[:, :, None] == second[:, None, :], axis=0))


@pytest.mark.parametrize("classes,n,permutations,seed", [
    (1, 600, 50, 0), (3, 600, 200, 3), (4, 37, 9, np.int64(12)), (2, 10, 0, 5),
])
def test_shuffle_table_is_the_documented_spawned_stream(classes, n, permutations, seed):
    labels = np.random.default_rng(7).integers(0, classes, size=n)
    groups = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    table = measures._shuffles(groups, n, permutations, seed)
    assert np.array_equal(table, shuffle_table(groups, n, permutations, seed))
    assert np.array_equal(table, within_class_shuffles(labels, permutations, seed))


@pytest.mark.parametrize("route", ["features", "grams"])
@pytest.mark.parametrize("labels,message", [(np.arange(5), "length 5"),
                                            (np.zeros(60, dtype=int), "labels class 0 holds")])
def test_labels_are_checked_without_permutations(route, labels, message):
    x, y, z = chain_triple(60, 2)
    if route == "features":
        call = lambda: cond_from_features(x, y, z, 1e-2, labels=labels)
    else:
        ky = label_gram(y)
        kxt = product_gram(gram(x, KernelConfig.from_data(x)), ky)
        call = lambda: cond(kxt, product_gram(label_gram(z), ky), ky, 1e-2, labels=labels)
    with pytest.raises(InputError, match=message):
        call()


def test_cond_rejects_labels_coarser_than_the_label_gram():
    x = random_features(4, n=12)
    classes = np.arange(12) % 3
    ky = label_gram(one_hot(classes, 3))
    kx = gram(x, KernelConfig.from_data(x))
    kz = label_gram(one_hot(np.arange(12) % 2, 2))
    merged = np.minimum(classes, 1)  # classes 1 and 2 share a label
    with pytest.raises(InputError, match="labels"):
        cond(product_gram(kx, ky), product_gram(kz, ky), ky, 1e-2, labels=merged,
             permutations=5)
    finer = np.arange(12) % 6  # splitting a class still fixes K_Y
    assert cond(product_gram(kx, ky), product_gram(kz, ky), ky, 1e-2, labels=finer,
                permutations=5).permutation_pvalue is not None


@pytest.mark.parametrize("case,error", [
    ("epsilon", ConfigError), ("size", InputError), ("labels-missing", InputError),
    ("labels-length", InputError), ("non-finite", NumericalError),
    ("not-factorizable", NumericalError),
])
def test_cond_input_checks(case, error):
    x = random_features(6, n=10)
    k = gram(x, KernelConfig.from_data(x))
    kxt, kzt, ky = k, k, GramMatrix(np.ones((10, 10)))
    kw = {"epsilon": 1e-2, "permutations": 3, "labels": np.zeros(10, dtype=int)}
    if case == "epsilon":
        kw["epsilon"] = 0.0
    elif case == "size":
        kzt = GramMatrix(np.eye(9))
    elif case == "labels-missing":
        kw["labels"] = None
    elif case == "labels-length":
        kw["labels"] = np.zeros(9, dtype=int)
    elif case == "non-finite":
        entries = k.entries.copy()
        entries[2, 3] = entries[3, 2] = np.inf
        kzt = GramMatrix(entries)
    else:
        kxt = GramMatrix(-10.0 * np.eye(10))
    with pytest.raises(error):
        cond(kxt, kzt, ky, kw.pop("epsilon"), **kw)


# per-class statistic


def test_per_class_single_class_equals_plain():
    x = random_features(8, n=30)
    z = one_hot(np.random.default_rng(8).integers(0, 2, size=30), 2)
    labels = np.zeros(30, dtype=int)
    assert (per_class_nocco_from_features(x, z, labels, 1e-3).statistic
            == nocco_from_features(x, z, 1e-3).statistic)


def test_a_fortran_ordered_block_gives_the_c_bits():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 50))
    labels = rng.integers(0, 3, size=50)
    y, z = one_hot(labels, 3), one_hot(rng.integers(0, 2, size=50), 2)
    runs = {}
    for layout in (np.ascontiguousarray, np.asfortranarray):
        xl, yl, zl = layout(x), layout(y), layout(z)
        reps = [cond_from_features(xl, yl, zl, 1e-3, labels=labels, permutations=20),
                nocco_from_features(xl, zl, 1e-3, permutations=20),
                per_class_nocco_from_features(xl, zl, labels, 1e-3, permutations=20)]
        value, grad = cond_objective(xl, yl, zl, None, 1e-3)
        runs[layout] = ([(r.statistic, r.permutation_pvalue) for r in reps],
                        value, grad.tobytes())
    assert not np.asfortranarray(x).flags.c_contiguous
    assert runs[np.ascontiguousarray] == runs[np.asfortranarray]


def test_per_class_ignores_proportion_shift():
    # domains differ only in class proportions; within every class the features
    # are domain-independent, so the class-level statistic stays at its null
    # while the plain statistic picks up the marginal dependence
    rng = np.random.default_rng(12)
    n = 400
    domains = rng.integers(0, 2, size=n)
    probs = np.where(domains == 0, 0.8, 0.2)
    labels = (rng.random(n) < probs).astype(int)
    x = np.where(labels == 0, -2.0, 2.0)[None, :] + 0.5 * rng.normal(size=(2, n))
    z = one_hot(domains, 2)

    plain = nocco_from_features(x, z, 1e-3).statistic
    per_class = per_class_nocco_from_features(x, z, labels, 1e-3,
                                              permutations=200, seed=0)
    assert plain > 10 * per_class.statistic
    assert per_class.permutation_pvalue > 0.05


def test_per_class_skips_thin_classes_with_warning():
    x = random_features(5, n=21)
    z = one_hot(np.random.default_rng(5).integers(0, 2, size=21), 2)
    labels = np.concatenate([np.zeros(20, dtype=int), [1]])
    with pytest.warns(UserWarning, match="skipped"):
        rep = per_class_nocco_from_features(x, z, labels, 1e-3)
    assert rep.skipped_classes == 1


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 32),
       z_kind=st.sampled_from(["one-hot", "continuous", "constant"]),
       classes=st.integers(1, 4), epsilon=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
       permutations=st.integers(1, 30), evaluator=st.sampled_from(["solve", "sums"]))
def test_plain_and_per_class_nulls_match_the_dense_nulls(seed, n, z_kind, classes,
                                                         epsilon, permutations, evaluator):
    # small n with up to 4 classes leaves thin and single-domain classes,
    # which the per-class statistic skips; a constant Z is one cell
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(int(rng.integers(1, 4)), n))
    labels = rng.integers(0, classes, size=n)
    if z_kind == "one-hot":
        z = one_hot(rng.integers(0, int(rng.integers(1, 4)), size=n), 3)
    elif z_kind == "continuous":
        z = rng.normal(size=(2, n))
    else:
        z = np.ones((1, n))
    kx, kz = gram(x, KernelConfig.from_data(x)), label_gram(z)
    oracle = dense_per_class_null(kx.entries, kz.entries, labels, epsilon, permutations,
                                  seed)
    # a huge bincount cost keeps the triangular solve, a hugely negative
    # one the block sums, whatever n, c and the permutation count
    cost = 10 ** 9 if evaluator == "solve" else -10 ** 9
    per_class = None
    with patch.object(measures, "_BINCOUNT_FLOPS", cost), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # skipped classes
        plain = nocco_from_features(x, z, epsilon, permutations=permutations, seed=seed)
        if oracle is None:
            with pytest.raises(DegenerateDataError):
                per_class_nocco_from_features(x, z, labels, epsilon,
                                              permutations=permutations, seed=seed)
        else:
            per_class = per_class_nocco_from_features(x, z, labels, epsilon,
                                                      permutations=permutations, seed=seed)

    perms = list(shuffle_table([np.arange(n)], n, permutations, seed).T)
    checks = [(plain, dense_plain_null(kx.entries, kz.entries, epsilon, perms))]
    if per_class is not None:
        checks.append((per_class, oracle))
    for rep, (stat, reps, ties) in checks:
        # the route's error is bounded as in the conditional tests
        assert abs(rep.statistic - stat) <= 1e-11 * abs(stat) + 1e-15 / epsilon
        # an exact tie is a hit even where the dense sum rounded it below
        hits = np.count_nonzero((reps >= stat) | ties)
        assert rep.permutation_pvalue == (1 + hits) / (1 + permutations)


@pytest.mark.parametrize("shift, plain_stat, plain_p, per_class_stat, per_class_p", [
    (0.0, 0.03823376586956406, 0.004975124378109453, 0.0038541546472525795,
     0.5621890547263682),
    (2.0, 0.053363080459824075, 0.004975124378109453, 0.17494267159922008,
     0.004975124378109453),
])
def test_seeded_plain_and_per_class_reports_are_unchanged(shift, plain_stat, plain_p,
                                                          per_class_stat, per_class_p):
    # seeded reports of the plain and per-class tests: the statistics as the
    # Gram route gave them, which may move by rounding across BLAS builds, and
    # the p-values of the spawned shuffle stream
    x, y, z = chain_triple(120, 7, classes=3, domains=2, shift=shift, noise_sd=0.5)
    eps = 120 ** -0.25
    rep = nocco_from_features(x, z, eps, permutations=200, seed=11)
    assert rep.statistic == pytest.approx(plain_stat, rel=1e-12, abs=0.0)
    assert rep.permutation_pvalue == plain_p
    rep = per_class_nocco_from_features(x, z, y.argmax(axis=0), eps, permutations=200,
                                        seed=11)
    assert rep.statistic == pytest.approx(per_class_stat, rel=1e-12, abs=0.0)
    assert rep.permutation_pvalue == per_class_p
    assert rep.skipped_classes == 0


def test_plain_statistic_matches_the_dense_trace_on_the_collapse_datasets():
    # the 50 datasets of acceptance criterion 1, whose constant-label collapse
    # now compares the cells route with itself: here the plain statistic is
    # checked against the dense Tr(R_Z R_X) of the normalized centered Grams
    rng = np.random.default_rng(1001)
    epsilons = [1e-2, 1e-4, 1e-6]
    for i in range(50):
        n = int(rng.integers(8, 201))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(d, n))
        z = rng.normal(size=(2, n)) + 0.5 * x[:1]
        eps = epsilons[i % 3]
        dense, _, _ = dense_plain_null(gram(x, KernelConfig.from_data(x)).entries,
                                       label_gram(z).entries, eps, [])
        stat = nocco_from_features(x, z, eps).statistic
        assert abs(stat - dense) <= 1e-11 * abs(dense) + 1e-15 / eps


def test_per_class_all_skipped_degenerate():
    x = random_features(5, n=10)
    z = one_hot(np.zeros(10, dtype=int), 1)  # single domain everywhere
    labels = np.zeros(10, dtype=int)
    with pytest.raises(DegenerateDataError):
        with pytest.warns(UserWarning):
            per_class_nocco_from_features(x, z, labels, 1e-3)


# mmd


def test_mmd_identical_samples_exact_zero():
    x = random_features(2, n=25)
    assert mmd(x, x) == 0.0
    dup = x[:, [0, 1, 1, 2, 3, 3, 3, 0]]  # duplicate columns
    assert mmd(dup, dup) == 0.0


def test_mmd_point_masses_closed_form():
    # the fitted sigma^2 is the mean squared distance over all four pairs, 1/2
    xa = np.array([[0.0]])
    xb = np.array([[1.0]])
    assert mmd(xa, xb) == pytest.approx(2.0 - 2.0 * math.exp(-2.0), rel=1e-14)


def test_mmd_same_distribution_trend():
    medians = []
    for n in (50, 200, 500):
        vals = []
        for seed in range(7):
            rng = np.random.default_rng(1000 + seed)
            vals.append(mmd(rng.normal(size=(2, n)), rng.normal(size=(2, n))))
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


@settings(deadline=None)
@given(seed=st.integers(0, 300))
def test_mmd_nonnegative(seed):
    rng = np.random.default_rng(seed)
    xa = rng.normal(size=(2, 10))
    xb = rng.normal(size=(2, 12)) + rng.normal()
    assert mmd(xa, xb) >= 0.0


def test_mmd_empty_input_rejected():
    with pytest.raises(InputError):
        mmd(np.zeros((2, 0)), np.zeros((2, 3)))


# a-distance


def test_a_distance_identical_distributions_small():
    rng = np.random.default_rng(0)
    rep = a_distance(rng.normal(size=(3, 400)), rng.normal(size=(3, 400)))
    assert abs(rep.d_a) <= 0.3


def test_a_distance_separable_near_two():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(2, 100)) - 10.0
    xt = rng.normal(size=(2, 100)) + 10.0
    rep = a_distance(xs, xt)
    assert rep.classifier_test_error <= 0.02
    assert rep.d_a >= 1.9


def test_a_distance_definitional_identity():
    rng = np.random.default_rng(2)
    rep = a_distance(rng.normal(size=(2, 40)), rng.normal(size=(2, 40)) + 0.5)
    assert rep.d_a == 2.0 * (1.0 - 2.0 * rep.classifier_test_error)
    assert AdistanceReport.from_error(0.25).d_a == 1.0


def test_a_distance_per_class_and_skips():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(2, 60))
    xt = rng.normal(size=(2, 60)) + 1.0
    ys = np.concatenate([np.zeros(59, dtype=int), [1]])
    yt = np.concatenate([np.zeros(59, dtype=int), [1]])
    rep = a_distance(xs, xt, labels_s=ys, labels_t=yt)
    assert [c for c, _ in rep.per_class] == [0]
    assert rep.skipped_classes == [1]


def test_a_distance_names_the_label_vector_of_the_wrong_length():
    rng = np.random.default_rng(5)
    xs, xt = rng.normal(size=(2, 20)), rng.normal(size=(2, 24)) + 1.0
    ys, yt = np.arange(20) % 2, np.arange(24) % 3  # class 2 is in the target only
    with pytest.raises(InputError, match="labels_t length 23 != sample count 24"):
        a_distance(xs, xt, labels_s=ys, labels_t=yt[:-1])
    with pytest.raises(InputError, match="labels_s length 21 != sample count 20"):
        a_distance(xs, xt, labels_s=np.arange(21) % 2, labels_t=yt)
    rep = a_distance(xs, xt, labels_s=ys, labels_t=yt)
    assert [c for c, _ in rep.per_class] == [0, 1]
    assert rep.skipped_classes == [2]


@pytest.mark.parametrize("given", ["labels_s", "labels_t"])
def test_a_distance_names_the_missing_label_vector(given):
    rng = np.random.default_rng(5)
    xs, xt = rng.normal(size=(2, 20)), rng.normal(size=(2, 20)) + 1.0
    missing = "labels_t" if given == "labels_s" else "labels_s"
    with pytest.raises(InputError, match=f"{missing} is missing"):
        a_distance(xs, xt, **{given: np.arange(20) % 2})


def test_a_distance_needs_four_per_domain():
    rng = np.random.default_rng(4)
    with pytest.raises(InputError):
        a_distance(rng.normal(size=(2, 3)), rng.normal(size=(2, 10)))


# convergence probe


def test_statistic_shrinks_with_epsilon():
    # plain statistic: both normalized factors shrink, so the trace does too;
    # the conditional statistic shares this only while eps stays small, since
    # I - R_Y grows back toward I as eps gets large
    x, y, z = chain_triple(200, 0, classes=3, domains=2, shift=0.0, noise_sd=0.5)
    plain = [nocco_from_features(x, z, e).statistic for e in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)]
    assert plain == sorted(plain, reverse=True)
    conditional = [cond_from_features(x, y, z, e).statistic for e in (1e-4, 1e-3, 1e-2)]
    assert conditional == sorted(conditional, reverse=True)


def test_convergence_probe_flags_bad_schedule():
    gen = lambda n, seed: chain_triple(n, seed, classes=2, domains=2,
                                       shift=0.0, noise_sd=0.5)
    with pytest.warns(UserWarning, match="eps"):
        convergence_probe(gen, [50, 100], epsilon_rule=lambda n: 1.0 / n)


@pytest.mark.parametrize("sizes,rule,fragment", [
    ([], None, "sizes"),
    ([48, 96], lambda n: 0.0, "epsilon rule"),
    ([48, 96], lambda n: 1.0 - n / 48, "epsilon rule"),
])
def test_convergence_probe_rejects_a_bad_schedule(sizes, rule, fragment):
    gen = lambda n, seed: chain_triple(n, seed, classes=2, domains=2,
                                       shift=0.0, noise_sd=0.5)
    with pytest.raises(ConfigError, match=fragment):
        convergence_probe(gen, sizes, epsilon_rule=rule)


def test_convergence_probe_returns_requested_sizes():
    gen = lambda n, seed: chain_triple(n, seed, classes=2, domains=2,
                                       shift=0.0, noise_sd=0.5)
    out = convergence_probe(gen, [48, 96], seed=1)
    assert [n for n, _ in out] == [48, 96]
    assert all(s >= -1e-10 for _, s in out)


def test_dependent_scenario_stays_above_independent():
    eps = 100.0 ** -0.25
    dep_stats, ind_stats = [], []
    for seed in range(8):
        x, y, z = chain_triple(100, seed, classes=2, domains=2, shift=1.0, noise_sd=0.5)
        dep_stats.append(cond_from_features(x, y, z, eps).statistic)
        x, y, z = chain_triple(100, seed, classes=2, domains=2, shift=0.0, noise_sd=0.5)
        ind_stats.append(cond_from_features(x, y, z, eps).statistic)
    assert min(dep_stats) > np.quantile(ind_stats, 0.95)


# cross-cutting invariants


def test_permutation_invariance_of_statistics():
    rng = np.random.default_rng(30)
    n = 60
    x = rng.normal(size=(3, n))
    labels = rng.integers(0, 2, size=n)
    y = one_hot(labels, 2)
    z = one_hot(rng.integers(0, 2, size=n), 2)
    perm = rng.permutation(n)

    before = nocco_from_features(x, z, 1e-3).statistic
    after = nocco_from_features(x[:, perm], z[:, perm], 1e-3).statistic
    assert after == pytest.approx(before, abs=1e-10)

    before = cond_from_features(x, y, z, 1e-3).statistic
    after = cond_from_features(x[:, perm], y[:, perm], z[:, perm], 1e-3).statistic
    assert after == pytest.approx(before, abs=1e-10)

    before = per_class_nocco_from_features(x, z, labels, 1e-3).statistic
    after = per_class_nocco_from_features(x[:, perm], z[:, perm], labels[perm],
                                          1e-3).statistic
    assert after == pytest.approx(before, abs=1e-10)


def test_scale_invariance_under_fitted_bandwidth():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 50))
    z = one_hot(rng.integers(0, 2, size=50), 2)
    base = nocco_from_features(x, z, 1e-3).statistic
    # power-of-two scaling is exact in floating point
    assert nocco_from_features(2.0 * x, z, 1e-3).statistic == base
    assert nocco_from_features(1.7 * x, z, 1e-3).statistic == pytest.approx(
        base, rel=1e-10
    )


@settings(deadline=None)
@given(seed=st.integers(0, 200))
def test_statistics_nonnegative_within_tolerance(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 20))
    labels = rng.integers(0, 2, size=20)
    y = one_hot(labels, 2)
    z = one_hot(rng.integers(0, 2, size=20), 2)
    assert nocco_from_features(x, z, 1e-3).statistic >= -1e-10
    assert cond_from_features(x, y, z, 1e-3).statistic >= -1e-10


# entry checks


def statistic_blocks():
    """Valid blocks for every public statistic: 16 samples, 2 classes, 2 domains."""
    rng = np.random.default_rng(8)
    labels = np.arange(16) % 2
    return {"feature": rng.normal(size=(2, 16)), "label": one_hot(labels, 2),
            "domain": one_hot((np.arange(16) // 2) % 2, 2), "labels": labels,
            "source": rng.normal(size=(2, 10)), "target": rng.normal(size=(2, 12)) + 1.0}


STATISTICS = {
    "cond_objective": lambda b: cond_objective(b["feature"], b["label"], b["domain"],
                                               None, 1e-2),
    "cond_from_features": lambda b: cond_from_features(b["feature"], b["label"],
                                                       b["domain"], 1e-2),
    "nocco_from_features": lambda b: nocco_from_features(b["feature"], b["domain"], 1e-2),
    "per_class_nocco_from_features": lambda b: per_class_nocco_from_features(
        b["feature"], b["domain"], b["labels"], 1e-2),
    "mmd": lambda b: mmd(b["source"], b["target"]),
    "a_distance": lambda b: a_distance(b["source"], b["target"]),
}
BLOCK_DEFECTS = (
    [(f, block, defect) for f in ("cond_objective", "cond_from_features")
     for block, defect in (("feature", "nan"), ("label", "inf"), ("domain", "nan"),
                           ("label", "columns"), ("domain", "columns"))]
    + [(f, block, defect) for f in ("nocco_from_features", "per_class_nocco_from_features")
       for block, defect in (("feature", "inf"), ("domain", "nan"), ("domain", "columns"))]
    + [(f, block, defect) for f in ("mmd", "a_distance")
       for block, defect in (("source", "nan"), ("target", "inf"), ("target", "rows"))]
)


@pytest.mark.parametrize("statistic,block,defect", BLOCK_DEFECTS)
def test_statistics_reject_a_bad_block_by_name(statistic, block, defect):
    blocks = statistic_blocks()
    STATISTICS[statistic](blocks)  # the valid blocks pass
    if defect == "columns":
        blocks[block] = blocks[block][:, :-1]
    elif defect == "rows":
        blocks[block] = blocks[block][:-1]
    else:
        blocks[block][-1, 3] = float(defect)
    with pytest.raises(InputError, match=f"{block} block"):
        STATISTICS[statistic](blocks)


def test_one_dimensional_blocks():
    rng = np.random.default_rng(9)
    xs, xt = rng.normal(size=40), rng.normal(size=40) + 1.0
    # a 1-d sample is one feature row
    assert a_distance(xs, xt) == a_distance(xs[None, :], xt[None, :])
    assert mmd(xs, xt) == mmd(xs[None, :], xt[None, :])
    # the objective's gradient has the feature block's shape, so it takes 2-d only
    b = statistic_blocks()
    with pytest.raises(InputError, match="feature block"):
        cond_objective(b["feature"][0], b["label"], b["domain"], None, 1e-2)


@pytest.mark.parametrize("statistic", ["nocco", "cond", "per_class_nocco",
                                       "cond_from_features"])
def test_a_negative_permutation_count_is_a_config_error(statistic):
    b = statistic_blocks()
    kx = gram(b["feature"], KernelConfig.from_data(b["feature"]))
    ky, kz = label_gram(b["label"]), label_gram(b["domain"])
    calls = {
        "nocco": lambda p: nocco_from_features(b["feature"], b["domain"], 1e-2,
                                               permutations=p),
        "cond": lambda p: cond(product_gram(kx, ky), product_gram(kz, ky), ky, 1e-2,
                               labels=b["labels"], permutations=p),
        "per_class_nocco": lambda p: per_class_nocco_from_features(
            b["feature"], b["domain"], b["labels"], 1e-2, permutations=p),
        "cond_from_features": lambda p: cond_from_features(
            b["feature"], b["label"], b["domain"], 1e-2, labels=b["labels"],
            permutations=p),
    }
    assert calls[statistic](0).permutation_pvalue is None
    with pytest.raises(ConfigError, match="permutations"):
        calls[statistic](-1)


@pytest.mark.parametrize("statistic", ["nocco", "cond", "per_class_nocco",
                                       "cond_from_features", "a_distance"])
def test_a_negative_seed_is_a_config_error(statistic):
    b = statistic_blocks()
    kx = gram(b["feature"], KernelConfig.from_data(b["feature"]))
    ky, kz = label_gram(b["label"]), label_gram(b["domain"])
    calls = {
        "nocco": lambda s, p: nocco_from_features(b["feature"], b["domain"], 1e-2,
                                                  permutations=p, seed=s),
        "cond": lambda s, p: cond(product_gram(kx, ky), product_gram(kz, ky), ky, 1e-2,
                                  labels=b["labels"], permutations=p, seed=s),
        "per_class_nocco": lambda s, p: per_class_nocco_from_features(
            b["feature"], b["domain"], b["labels"], 1e-2, permutations=p, seed=s),
        "cond_from_features": lambda s, p: cond_from_features(
            b["feature"], b["label"], b["domain"], 1e-2, labels=b["labels"],
            permutations=p, seed=s),
        "a_distance": lambda s, p: a_distance(b["source"], b["target"], split_seed=s),
    }
    for permutations in (0, 3):  # rejected even where no shuffle reads it
        calls[statistic](0, permutations)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            calls[statistic](-1, permutations)
