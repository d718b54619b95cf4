"""Block CG variants: convergence, history semantics, failure paths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlockLanczosError,
    BlurSpec,
    NonFiniteOperator,
    NotPositiveDefinite,
    Operator,
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


def test_trace_error_diagonal_form_matches_dense():
    # the 1-D diagonal is the operator diag(d), not an elementwise weight
    rng = np.random.default_rng(4)
    d = rng.uniform(1.0, 10.0, 6)
    x, x_star, x0 = rng.standard_normal((3, 6, 2))
    dense = trace_error(x, x_star, x0, np.diag(d))
    assert trace_error(x, x_star, x0, d) == dense
    assert trace_error(x, x_star, x0, Operator(d)) == dense


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
def test_converges_on_easy_problem(solver):
    a, b = easy_problem()
    h = solver(a, b)
    assert h.errors[0] == 1.0
    assert h.failure is None
    assert h.errors[-1] < 1e-10
    x_ref = np.linalg.solve(a, b)
    assert np.linalg.norm(h.x - x_ref) < 1e-8 * np.linalg.norm(x_ref)
    assert np.all(np.linalg.norm(b - a @ h.x, axis=0) < 1e-8 * np.linalg.norm(b))


def test_history_fields_and_first_below():
    a, b = easy_problem(seed=32)
    h = hs_bcg(a, b)
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


@pytest.mark.parametrize("solve, exact_mode", [(hs_bcg, None), (dr_bcg, False), (dr_bcg, True)])
def test_negative_maxit_is_refused(solve, exact_mode):
    a, b = easy_problem(seed=33)
    kwargs = {} if exact_mode is None else {"exact_mode": exact_mode}
    for maxit in (-1, -5):
        with pytest.raises(ValueError, match="maxit must be >= 0"):
            solve(a, b, maxit=maxit, **kwargs)
    h = solve(a, b, maxit=0, **kwargs)
    assert h.n_iter == 0 and h.errors.tolist() == [1.0]


@pytest.mark.parametrize("solve, exact_mode", [(hs_bcg, None), (dr_bcg, False), (dr_bcg, True)])
def test_maxit_that_is_not_an_integer_is_refused(solve, exact_mode):
    a, b = easy_problem(seed=34)
    kwargs = {} if exact_mode is None else {"exact_mode": exact_mode}
    for maxit in (2.0, "2"):
        with pytest.raises(ValueError, match="maxit must be an integer, got %r" % (maxit,)):
            solve(a, b, maxit=maxit, **kwargs)
    h = solve(a, b, maxit=np.int64(2), **kwargs)
    assert h.n_iter == 2 and np.array_equal(h.errors, solve(a, b, maxit=2, **kwargs).errors)


class RecordingOperator(Operator):
    """An Operator that keeps every block it is applied to."""

    def __init__(self, a):
        super().__init__(a)
        self.applied = []

    def __matmul__(self, v):
        self.applied.append(v.copy())
        return super().__matmul__(v)


@pytest.mark.parametrize("run", ["hs", "dr", "dr_exact"])
def test_no_matvec_on_the_zero_start(run):
    # x0 = 0, so the first residual is b itself and A never meets a zero block
    a, b = easy_problem(seed=34)
    op = RecordingOperator(a)
    h = DIAGONAL_RUNS[run](op, b)
    assert h.errors[-1] < 1e-10
    assert op.applied and all(np.any(v != 0.0) for v in op.applied)


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
def test_initial_guess_is_not_taken(solver):
    a, b = easy_problem(seed=34)
    with pytest.raises(TypeError, match="x0"):
        solver(a, b, x0=np.zeros(b.shape))


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
    assert h.failure is not None and "exhausted" in h.failure
    assert h.n_iter == 4  # n/p steps span everything
    assert h.errors[-1] < 1e-10


def test_exact_mode_basis_is_capped_at_the_dimension():
    # the run stops once its basis spans R^n, so a huge maxit costs no memory
    d = np.linspace(1.0, 10.0, 10)
    b = np.random.default_rng(41).standard_normal((10, 2))
    small = dr_bcg(d, b, maxit=10, exact_mode=True)
    tracemalloc.start()
    try:
        large = dr_bcg(d, b, maxit=10**5, exact_mode=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_history(large, small)
    assert small.n_iter == 5 and "exhausted" in small.failure
    assert peak < 2**20


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
    assert h.n_iter == ref.n_iter
    assert h.failure == ref.failure


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    run=st.sampled_from(sorted(DIAGONAL_RUNS)),
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(6, 40),
    seed=st.integers(0, 2**16),
    decades=st.floats(0.0, 4.0),
    maxit=st.one_of(st.none(), st.integers(1, 12)),
)
def test_diagonal_operator_matches_its_dense_form(run, p, n, seed, decades, maxit):
    rng = np.random.default_rng(seed)
    d = np.sort(10.0 ** rng.uniform(-decades, 0.0, n))
    b = rng.standard_normal((n, p))
    solve = DIAGONAL_RUNS[run]
    try:
        ref = solve(np.diag(d), b, maxit=maxit)
    except SingularInnerSolve:
        with pytest.raises(SingularInnerSolve):
            solve(d, b, maxit=maxit)
        return
    assert_same_history(solve(d, b, maxit=maxit), ref)


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


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
def test_right_hand_side_without_columns_is_a_typed_failure(solver):
    with pytest.raises(ShapeMismatch, match="no columns"):
        solver(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 0)))


@pytest.mark.parametrize("solver", [hs_bcg, dr_bcg])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["right-hand side"])
def test_non_finite_input_block_is_a_typed_failure(solver, value, block):
    a, b = easy_problem(n=10, seed=43)
    b[4, 1] = value
    with pytest.raises(NonFiniteOperator, match=block) as info:
        solver(a, b)
    assert isinstance(info.value, BlockLanczosError)
