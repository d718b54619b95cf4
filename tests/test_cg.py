"""Block CG variants: convergence, history semantics, failure paths."""

import numpy as np
import pytest

from blocklanczos import (
    BlockLanczosError,
    NonFiniteOperator,
    NotPositiveDefinite,
    RankDeficient,
    SingularInnerSolve,
    dr_bcg,
    hs_bcg,
    trace_error,
)
from conftest import rand_spd


def easy_problem(n=30, p=2, seed=31):
    a, _, rng = rand_spd(n, seed, low=1.0, high=10.0)
    b = rng.standard_normal((n, p))
    return a, b


def test_trace_error_formula():
    a = np.diag([1.0, 4.0, 9.0])
    x_star = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    x0 = np.zeros((3, 2))
    assert trace_error(x0, x_star, x0, a) == 1.0
    assert trace_error(x_star, x_star, x0, a) == 0.0
    # halfway along the segment the A-norm ratio is exactly one half
    assert np.isclose(trace_error(0.5 * x_star, x_star, x0, a), 0.5, rtol=1e-14)
    # direct evaluation oracle at an arbitrary point
    x = np.array([[0.5, -1.0], [2.0, 0.0], [0.0, 1.0]])
    err = x_star - x
    err0 = x_star - x0
    want = np.sqrt(np.trace(err.T @ a @ err) / np.trace(err0.T @ a @ err0))
    assert np.isclose(trace_error(x, x_star, x0, a), want, rtol=1e-14)
    # degenerate reference: starting at the solution
    assert trace_error(x_star, x_star, x_star, a) == 0.0
    assert trace_error(x, x_star, x_star, a) == float("inf")


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
def test_converges_on_easy_problem(solver):
    a, b = easy_problem()
    h = solver(a, b)
    assert h.errors[0] == 1.0
    assert h.failure is None
    assert h.errors[-1] < 1e-10
    assert h.ref_residual < 1e-12
    x_ref = np.linalg.solve(a, b)
    assert np.linalg.norm(h.x - x_ref) < 1e-8 * np.linalg.norm(x_ref)
    assert np.all(h.final_residual_norms < 1e-8 * np.linalg.norm(b))


def test_history_fields_and_first_below():
    a, b = easy_problem(seed=32)
    h = hs_bcg(a, b)
    assert h.variant == "hs" and not h.exact_mode
    assert h.n_iter == len(h.errors) - 1
    assert h.first_below(2.0) == 0
    j = h.first_below(1e-6)
    assert j is not None
    assert h.errors[j] <= 1e-6
    assert np.all(h.errors[:j] > 1e-6)
    assert h.first_below(-1.0) is None


def test_maxit_caps_the_run():
    a, b = easy_problem(seed=33)
    h = dr_bcg(a, b, maxit=3)
    assert h.n_iter == 3 and len(h.errors) == 4
    assert h.variant == "dr"


def test_nonzero_initial_guess():
    a, b = easy_problem(seed=34)
    rng = np.random.default_rng(99)
    x0 = rng.standard_normal(b.shape)
    h = hs_bcg(a, b, x0=x0)
    assert h.errors[0] == 1.0
    assert np.linalg.norm(h.x - np.linalg.solve(a, b)) < 1e-7


def test_direction_scaling_policy_is_invariant():
    # any invertible per-iteration scaling of the direction block leaves
    # the iterates unchanged in principle; check the curves stay together
    a, b = easy_problem(seed=35)
    plain = hs_bcg(a, b, maxit=20)
    scaled = hs_bcg(a, b, maxit=20, phi_policy=lambda k: 3.0 * np.eye(2))
    assert plain.n_iter == scaled.n_iter
    gap = np.max(np.abs(plain.errors - scaled.errors))
    assert gap < 1e-8


def test_degenerate_right_hand_sides():
    a, _, rng = rand_spd(10, 36)
    col = rng.standard_normal((10, 1))
    dep = np.hstack([col, col])
    with pytest.raises(SingularInnerSolve):
        hs_bcg(a, dep)
    with pytest.raises(RankDeficient):
        dr_bcg(a, dep)
    with pytest.raises(SingularInnerSolve):
        hs_bcg(a, np.zeros((10, 2)))


def test_exact_mode_halts_when_space_is_exhausted():
    a, _, rng = rand_spd(8, 37, low=1.0, high=4.0)
    b = rng.standard_normal((8, 2))
    h = dr_bcg(a, b, exact_mode=True)
    assert h.exact_mode
    assert h.failure is not None and "exhausted" in h.failure
    assert h.n_iter == 4  # n/p steps span everything
    assert h.errors[-1] < 1e-10


def test_partial_history_is_kept_on_late_failure():
    # drive hs to its attainable floor and far beyond: the residual Gram
    # goes numerically singular once the true residual is noise, and the
    # history up to that point must survive
    a, _, rng = rand_spd(20, 38, low=0.01, high=100.0)
    b = rng.standard_normal((20, 2))
    h = hs_bcg(a, b, maxit=2000)
    if h.failure is not None:
        assert h.n_iter >= 1
        assert len(h.errors) == h.n_iter + 1
        assert h.errors[-1] < 1e-6
    else:
        assert h.n_iter == 2000


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_operator_is_a_typed_failure(solver, value):
    a, b = easy_problem(n=10, seed=39)
    a[2, 7] = a[7, 2] = value
    with pytest.raises(NonFiniteOperator):
        solver(a, b)


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
def test_indefinite_operator_is_a_typed_failure(solver):
    b = np.random.default_rng(40).standard_normal((4, 2))
    with pytest.raises(NotPositiveDefinite) as info:
        solver(np.diag([1.0, -1.0, 2.0, 3.0]), b)
    assert isinstance(info.value, BlockLanczosError)
