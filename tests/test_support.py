"""Tests of the finite-difference harness in ``support``."""

import numpy as np
import pytest

from condadapt.data import one_hot
from condadapt.errors import InputError
from condadapt.gradients import CondKernelConfig, cond_objective
from support import GradCheckReport, finite_diff_check


def test_harness_exact_on_quadratic():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 8))
    rep = finite_diff_check(lambda m: 0.5 * float(np.sum(m * m)), x, x)
    assert rep.max_rel_error < 1e-8
    assert isinstance(rep, GradCheckReport)
    assert rep.step == 1e-5


def test_harness_rejects_zero_probes():
    x = np.zeros((2, 2))
    with pytest.raises(InputError, match="no probes"):
        finite_diff_check(lambda m: 0.0, x, x, probes=0)


def test_harness_rejects_bad_step_and_shape():
    x = np.zeros((2, 2))
    with pytest.raises(InputError):
        finite_diff_check(lambda m: 0.0, x, x, step=0.0)
    with pytest.raises(InputError):
        finite_diff_check(lambda m: 0.0, x, np.zeros((3, 2)))


def test_harness_deterministic_given_seed():
    rng = np.random.default_rng(11)
    xre = rng.normal(size=(4, 15))
    y = one_hot(rng.integers(0, 3, size=15), 3)
    z = one_hot(rng.integers(0, 2, size=15), 2)
    cfgs = CondKernelConfig.resolve(xre, y, z)
    grad = cond_objective(xre, y, z, cfgs, 1e-3)[1]
    obj = lambda m: cond_objective(m, y, z, cfgs, 1e-3)[0]
    a = finite_diff_check(obj, xre, grad, probes=10, seed=4)
    b = finite_diff_check(obj, xre, grad, probes=10, seed=4)
    assert a == b
