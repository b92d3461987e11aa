from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from condadapt import kernels
from condadapt.data import chain_triple, one_hot
from condadapt.errors import ConfigError, InputError
from condadapt.gradients import (
    CondKernelConfig,
    cell_terms,
    cond_cells,
    cond_objective,
    cond_values,
    regularized_factor,
)
from condadapt.kernels import KernelConfig, gram, label_gram, pairwise_sq_dists, product_gram
from condadapt.measures import cond, cond_from_features, nocco_from_features
from support import dense_cond_objective, finite_diff_check


def random_instance(seed, n=30, d=4):
    rng = np.random.default_rng(seed)
    xre = rng.normal(size=(d, n))
    y = one_hot(rng.integers(0, 3, size=n), 3)
    z = one_hot(rng.integers(0, 2, size=n), 2)
    return xre, y, z


# objective values


def test_value_agrees_with_measures_route():
    # dual route: the gradient module evaluates the same statistic that the
    # measures module computes from Gram matrices
    xre, y, z = random_instance(0)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    via_gradients = cond_objective(xre, y, z, cfgs, 1e-3)[0]
    via_measures = cond_from_features(xre, y, z, 1e-3).statistic
    assert via_gradients == via_measures  # one factor and one evaluator


def test_nocco_value_agrees_with_measures_route():
    xre, _, z = random_instance(1)
    value, _ = cond_objective(xre, np.ones((1, xre.shape[1])), z, None, 1e-3)
    assert value == nocco_from_features(xre, z, 1e-3).statistic


def test_constant_domain_block_is_stationary_zero():
    xre, y, _ = random_instance(2)
    z = np.ones((1, xre.shape[1]))
    value, grad = cond_objective(xre, y, z, None, 1e-3)
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(xre))


@pytest.mark.parametrize("labels", ["hard", "soft"])
def test_constant_label_and_domain_kernels_give_an_exact_zero(labels):
    # a config that reads both blocks as constant makes K_Zt all ones, which
    # centers to 0: the general path gives 0.0 and a gradient of +0.0 entries
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 50))
    y = (one_hot(rng.integers(0, 3, 50), 3) if labels == "hard"
         else rng.dirichlet(np.ones(3), size=50).T)
    z = one_hot(np.arange(50) % 2, 2)
    cfgs = CondKernelConfig(KernelConfig.from_data(x), None, None)
    value, grad = cond_objective(x, y, z, cfgs, 1e-2)
    assert value == 0.0 and type(value) is float
    np.testing.assert_array_equal(grad, np.zeros_like(x))
    assert not np.any(np.signbit(grad))


def test_constant_domain_block_gives_the_statistic_the_estimator_value():
    # cond_objective's 0 for one domain is a convention; the statistic reports
    # the estimator, Tr(R_Y S R_Xt S) > 0 at a finite eps, on both routes
    x, y, _ = chain_triple(60, 1)
    z = np.ones((1, 60))
    labels = y.argmax(axis=0)
    value, grad = cond_objective(x, y, z, None, 1e-2)
    assert value == 0.0 and not np.any(grad)
    rep = cond_from_features(x, y, z, 1e-2, labels=labels, permutations=20, seed=0)
    assert rep.statistic == pytest.approx(0.0025895234182600024, rel=1e-12, abs=0.0)
    oracle, _ = dense_cond_objective(x, y, z, CondKernelConfig.resolve(x, y, z), 1e-2)
    assert rep.statistic == pytest.approx(oracle, rel=1e-12, abs=0.0)
    ky = label_gram(y)
    via_grams = cond(product_gram(gram(x, KernelConfig.from_data(x)), ky),
                     product_gram(label_gram(z), ky), ky, 1e-2, labels=labels,
                     permutations=20)
    assert via_grams.statistic == pytest.approx(rep.statistic, rel=1e-12, abs=0.0)
    # a shuffle within the classes keeps every sample in its cell: all ties
    assert rep.permutation_pvalue == via_grams.permutation_pvalue == 1.0


def test_epsilon_validation():
    xre, y, z = random_instance(3)
    with pytest.raises(ConfigError):
        cond_objective(xre, y, z, None, 0.0)
    with pytest.raises(ConfigError):
        cond_objective(xre, y, z, None, float("nan"))


def test_column_count_mismatch_rejected():
    xre, y, z = random_instance(4)
    with pytest.raises(InputError):
        cond_objective(xre, y[:, :-1], z, None, 1e-3)


def test_nonfinite_features_rejected_at_the_door():
    xre, y, z = random_instance(5)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    xre[0, 0] = np.nan
    with pytest.raises(InputError):
        cond_objective(xre, y, z, cfgs, 1e-3)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), classes=st.integers(1, 5),
       domains=st.integers(2, 4), n=st.integers(2, 48),
       epsilon=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
       labels=st.sampled_from(["hard", "constant", "soft"]))
# two soft label columns 3e-4 apart, whose cell distance the expanded form
# lost to cancellation
@example(seed=252, classes=2, domains=2, n=2, epsilon=0.1, labels="soft")
# G_X with an eigenvalue 3.3e-4 next to n eps = 3e-4, where a float64 oracle
# lost digits
@example(seed=3873, classes=1, domains=2, n=3, epsilon=1e-4, labels="hard")
def test_cell_factorization_matches_dense_oracle(seed, classes, domains, n,
                                                 epsilon, labels):
    # small n against up to 5 classes x 4 domains leaves empty classes and
    # singleton (class, domain) cells
    rng = np.random.default_rng(seed)
    xre = rng.normal(size=(int(rng.integers(1, 6)), n))
    if labels == "hard":
        y = one_hot(rng.integers(0, classes, size=n), classes)
    elif labels == "constant":
        y = one_hot(np.full(n, classes - 1), classes)
    else:
        logits = rng.normal(size=(classes, n))
        y = np.exp(logits) / np.exp(logits).sum(axis=0)
    domain = rng.integers(0, domains, size=n)
    domain[:2] = [0, 1]  # at least two domains present
    z = one_hot(domain, domains)
    if labels == "hard":
        # with every class inside one domain the statistic is O(eps^2), below
        # what the dense reference resolves; the next test covers that case
        cls = y.argmax(axis=0)
        assume(any(np.unique(domain[cls == k]).size > 1 for k in np.unique(cls)))
    cfgs = CondKernelConfig.resolve(xre, y, z)

    value, grad = cond_objective(xre, y, z, cfgs, epsilon)
    ref_value, ref_grad = dense_cond_objective(xre, y, z, cfgs, epsilon)
    tol = 1e-9 if labels == "soft" else 1e-11
    assert abs(value - ref_value) <= tol * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= tol * np.max(np.abs(ref_grad))


def test_domain_as_a_function_of_the_label_is_resolved():
    # Z = Y: the value is O(eps^2) and the dense reference in support is off by
    # 1e-10 here (5e-7 in float64); the expected numbers come from a 50-digit mpmath evaluation
    # of the same dense formulas with the same bandwidths
    xre = np.array([[0.3, -1.1, 0.8, 1.7], [-0.4, 0.9, 0.2, -1.3]])
    y = one_hot([0, 1, 1, 0], 2)
    value, grad = cond_objective(xre, y, y.copy(), None, 1e-4)
    expected = np.array([
        [2.4512158883835414e-12, 1.964910860435072e-12,
         -2.1775197922114734e-12, -2.23860695660714e-12],
        [-2.147837666422164e-12, -5.670584927778304e-13,
         1.4801311206486876e-12, 1.234765038551307e-12]])
    assert value == pytest.approx(5.3448637245882349e-8, rel=1e-12, abs=0.0)
    assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("epsilon", [1e-4, 1e-6])
def test_near_degenerate_gram_matches_dense_oracle(epsilon):
    # sigma^2_X far above the spread puts K_X within about 1e-9 of 11^T, where
    # the uncentered factor and its rank-one correction lose the most digits.
    # The dense oracle evaluates its formulas in 64-bit-mantissa arithmetic;
    # cond_objective is within 5e-8 (eps 1e-4) and 1e-6 (eps 1e-6) relative
    # of it on the value, and 5e-11 on the gradient.
    rng = np.random.default_rng(0)
    n = 300
    xre = 5e-6 * rng.normal(size=(3, n))
    y = one_hot(rng.integers(0, 3, size=n), 3)
    z = one_hot(rng.integers(0, 2, size=n), 2)
    fitted = CondKernelConfig.resolve(xre, y, z)
    cfgs = CondKernelConfig(KernelConfig(1.0), fitted.y, fitted.z)
    assert np.max(pairwise_sq_dists(xre)) < 2e-9

    value, grad = cond_objective(xre, y, z, cfgs, epsilon)
    ref_value, ref_grad = dense_cond_objective(xre, y, z, cfgs, epsilon)
    value_tol, grad_tol = (1e-6, 1e-10) if epsilon == 1e-4 else (2e-5, 1e-9)
    assert abs(value - ref_value) <= value_tol * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= grad_tol * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("labels", ["hard", "soft", "constant"])
def test_cond_cells_builds_the_plain_extended_gram(labels):
    # the permutation tests factor this K_Xt, and their p-values compare
    # replicates with the statistic, so it keeps every bit of the plain product
    rng = np.random.default_rng(12)
    n = 40
    xre = rng.normal(size=(5, n))
    if labels == "hard":
        y = one_hot(rng.integers(0, 3, size=n), 3)
    elif labels == "soft":
        logits = rng.normal(size=(3, n))
        y = np.exp(logits) / np.exp(logits).sum(axis=0)
    else:
        y = np.ones((1, n))
    z = one_hot(rng.integers(0, 2, size=n), 2)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    kxt, cell, my, _ = cond_cells(xre, y, z, cfgs)
    my_cells = np.ones((cell.max() + 1,) * 2) if my is None else my
    expected = (np.exp(-pairwise_sq_dists(xre) / cfgs.x.bandwidth_sq)
                * my_cells[np.ix_(cell, cell)])
    assert (my is None) == (labels == "constant")
    assert kxt.tobytes() == expected.tobytes()


def test_row_blocks_keep_the_bits_of_the_whole_array_passes():
    # distances and the M_Y product run in row blocks; blocks of one, two and
    # a ragged number of rows give the bits of one block over all rows
    rng = np.random.default_rng(15)
    xre = rng.normal(size=(4, 37))
    y = one_hot(rng.integers(0, 3, size=37), 3)
    z = one_hot(rng.integers(0, 2, size=37), 2)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    runs = []
    for elements in (1, 74, 37 * 5 + 3, 10 ** 6):
        with patch.object(kernels, "_BLOCK_ELEMENTS", elements):
            runs.append((pairwise_sq_dists(xre).tobytes(),
                         cond_cells(xre, y, z, cfgs)[0].tobytes()))
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("labels", ["hard", "soft"])
@pytest.mark.parametrize("stack", [1, 4])
def test_cond_values_matches_a_loop_over_the_slices(labels, stack):
    # cond_values solves the whole stack at once and forms F Q with one product
    # per slice; the loop solves and multiplies each slice on its own, so the
    # values may differ by rounding: 1e-12 relative
    rng = np.random.default_rng(13)
    n = 60
    xre = rng.normal(size=(5, n))
    if labels == "hard":
        y = one_hot(rng.integers(0, 3, size=n), 3)
    else:
        logits = rng.normal(size=(3, n))
        y = np.exp(logits) / np.exp(logits).sum(axis=0)
    z = one_hot(rng.integers(0, 2, size=n), 2)
    kxt, cell, my, mzt = cond_cells(xre, y, z, CondKernelConfig.resolve(xre, y, z))
    ridge = n * 1e-3
    v, w, q, _ = cell_terms(cell, my, mzt, ridge)
    low, r = regularized_factor(kxt, ridge)
    shuffles = np.column_stack([np.arange(n)] + [rng.permutation(n) for _ in range(stack - 1)])
    values, _ = cond_values(low, r, v[shuffles], q, w, ridge)
    expected = []
    for order in shuffles.T:
        f = scipy.linalg.solve_triangular(low, v[order], lower=True)
        f -= np.outer(r, r @ f)
        expected.append(np.sum(q * w) - ridge * np.sum((f @ q) * f))
    assert q.shape[0] == (5 if labels == "hard" else n - 1)  # c - 1 cells
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shift, statistic, pvalue", [
    (0.0, 0.09643238315677338, 0.5472636815920398),
    (1.0, 0.13517903768547623, 0.004975124378109453),
])
def test_seeded_conditional_test_report_is_unchanged(shift, statistic, pvalue):
    # seeded reports of the permutation test, which shares cond_cells with the
    # objective; the statistic may move by rounding across BLAS builds
    x, y, z = chain_triple(120, 7, classes=3, domains=2, shift=shift, noise_sd=0.5)
    rep = cond_from_features(x, y, z, 120 ** -0.25, labels=y.argmax(axis=0),
                             permutations=200, seed=11)
    assert rep.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
    assert rep.permutation_pvalue == pvalue


# gradient correctness


def test_cond_gradient_matches_finite_differences():
    xre, y, z = random_instance(6)
    cfgs = CondKernelConfig.resolve(xre, y, z)  # stop-gradient bandwidths
    value, grad = cond_objective(xre, y, z, cfgs, 1e-3)
    rep = finite_diff_check(lambda m: cond_objective(m, y, z, cfgs, 1e-3)[0], xre, grad)
    assert rep.max_rel_error < 1e-4
    assert rep.probes == 50


def test_nocco_gradient_matches_finite_differences():
    # a constant label block makes the conditional objective the plain one
    xre, _, z = random_instance(7)
    ones = np.ones((1, xre.shape[1]))
    cfgs = CondKernelConfig.resolve(xre, ones, z)
    value, grad = cond_objective(xre, ones, z, cfgs, 1e-3)
    assert value > 0.0 and np.max(np.abs(grad)) > 0.0
    rep = finite_diff_check(lambda m: cond_objective(m, ones, z, cfgs, 1e-3)[0], xre, grad)
    assert rep.max_rel_error < 1e-4


def test_gradient_is_permutation_equivariant():
    xre, y, z = random_instance(8)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    grad = cond_objective(xre, y, z, cfgs, 1e-3)[1]
    perm = np.random.default_rng(8).permutation(xre.shape[1])
    grad_perm = cond_objective(xre[:, perm], y[:, perm], z[:, perm], cfgs, 1e-3)[1]
    np.testing.assert_allclose(grad_perm, grad[:, perm], atol=1e-10)


def test_duplicated_samples_share_gradients():
    xre, y, z = random_instance(9, n=12)
    x2 = np.repeat(xre, 2, axis=1)
    y2 = np.repeat(y, 2, axis=1)
    z2 = np.repeat(z, 2, axis=1)
    cfgs = CondKernelConfig.resolve(x2, y2, z2)
    grad = cond_objective(x2, y2, z2, cfgs, 1e-3)[1]
    np.testing.assert_allclose(grad[:, ::2], grad[:, 1::2], atol=1e-12)
