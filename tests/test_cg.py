"""Block CG variants: convergence, history semantics, failure paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlockLanczosError,
    BlurSpec,
    NonFiniteOperator,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
    SingularInnerSolve,
    blurred_problem,
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


# -- diagonal operators ------------------------------------------------------

DIAGONAL_RUNS = {
    "hs": hs_bcg,
    "dr": dr_bcg,
    "dr_exact": lambda a, b, **kw: dr_bcg(a, b, exact_mode=True, **kw),
}


def assert_same_history(h, ref):
    assert np.array_equal(h.errors, ref.errors)
    assert np.array_equal(h.x, ref.x)
    assert np.array_equal(h.final_residual_norms, ref.final_residual_norms)
    assert h.ref_residual == ref.ref_residual
    assert h.n_iter == ref.n_iter
    assert h.failure == ref.failure
    assert (h.variant, h.exact_mode) == (ref.variant, ref.exact_mode)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    run=st.sampled_from(sorted(DIAGONAL_RUNS)),
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(6, 40),
    seed=st.integers(0, 2**16),
    decades=st.floats(0.0, 4.0),
    nonzero_x0=st.booleans(),
    maxit=st.one_of(st.none(), st.integers(1, 12)),
)
def test_diagonal_operator_matches_its_dense_form(run, p, n, seed, decades, nonzero_x0, maxit):
    rng = np.random.default_rng(seed)
    d = np.sort(10.0 ** rng.uniform(-decades, 0.0, n))
    b = rng.standard_normal((n, p))
    x0 = rng.standard_normal((n, p)) if nonzero_x0 else None
    solve = DIAGONAL_RUNS[run]
    try:
        ref = solve(np.diag(d), b, x0=x0, maxit=maxit)
    except SingularInnerSolve:
        with pytest.raises(SingularInnerSolve):
            solve(d, b, x0=x0, maxit=maxit)
        return
    assert_same_history(solve(d, b, x0=x0, maxit=maxit), ref)


@pytest.mark.parametrize("run", sorted(DIAGONAL_RUNS))
def test_diagonal_blurred_operator_matches_its_dense_form(run):
    a, eigs, rng = rand_spd(24, 41, low=0.1, high=100.0)
    y = np.linalg.eigh(a)[1]
    b = rng.standard_normal((24, 2))
    a_hat, b_hat = blurred_problem(eigs, y, b, BlurSpec(5, 1e-10))
    ref = DIAGONAL_RUNS[run](np.diag(a_hat), b_hat)
    assert_same_history(DIAGONAL_RUNS[run](a_hat, b_hat), ref)
    assert ref.errors[-1] < 1e-10


def test_diagonal_operator_exhausts_the_space_like_the_dense_one():
    rng = np.random.default_rng(42)
    d = np.sort(rng.uniform(1.0, 4.0, 8))
    b = rng.standard_normal((8, 2))
    h = dr_bcg(d, b, exact_mode=True)
    assert "exhausted" in h.failure and h.n_iter == 4
    assert_same_history(h, dr_bcg(np.diag(d), b, exact_mode=True))


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_diagonal_operator_is_a_typed_failure(solver, value):
    d = np.linspace(1.0, 2.0, 6)
    d[3] = value
    with pytest.raises(NonFiniteOperator):
        solver(d, np.ones((6, 2)))


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_diagonal_operator_is_a_typed_failure(solver, value):
    d = np.linspace(1.0, 2.0, 6)
    d[2] = value
    with pytest.raises(NotPositiveDefinite) as info:
        solver(d, np.ones((6, 2)))
    assert isinstance(info.value, BlockLanczosError)


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
@pytest.mark.parametrize("operator", [np.ones(1), np.ones(5), np.eye(5), np.float64(2.0)])
def test_right_hand_side_of_the_wrong_size_is_a_typed_failure(solver, operator):
    with pytest.raises(ShapeMismatch):
        solver(operator, np.ones((6, 2)))
