import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    NonFiniteOperator,
    NotPositiveDefinite,
    NotSymmetric,
    Operator,
    RankDeficient,
    ShapeMismatch,
    as_operator,
    householder_qr,
    panel_norm,
    reorthogonalize,
    spectrum_to_matrix,
    sym_eig,
    truncated_svd,
)
from blocklanczos import linalg
from blocklanczos.linalg import qr_unchecked

EPS = float(np.finfo(float).eps)


def test_qr_factors():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 4))
    q, r = householder_qr(m)
    assert q.shape == (12, 4) and r.shape == (4, 4)
    assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-14
    assert np.linalg.norm(q @ r - m) < 1e-13
    assert np.allclose(r, np.triu(r))
    assert np.all(np.diag(r) > 0)


def test_qr_sign_convention_is_deterministic():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 3))
    q1, r1 = householder_qr(m)
    q2, r2 = householder_qr(m.copy())
    assert np.array_equal(q1, q2) and np.array_equal(r1, r2)


def test_qr_rejects_rank_deficient():
    rng = np.random.default_rng(5)
    col = rng.standard_normal((10, 1))
    m = np.hstack([col, 2.0 * col])
    with pytest.raises(RankDeficient):
        householder_qr(m)
    with pytest.raises(RankDeficient):
        householder_qr(np.zeros((6, 2)))


@pytest.mark.parametrize("rank_tol", [0.0, 1e-12, 1e-6, 0.3, 1.0 - 1e-15, 1.0])
def test_qr_decision_matches_the_spectral_test(rank_tol, monkeypatch):
    # the Frobenius shortcut may only skip the SVD where the spectral test
    # accepts; every decision and every factor must be the spectral test's,
    # at the package's RANK_TOL and at thresholds around it
    monkeypatch.setattr(linalg, "RANK_TOL", rank_tol)
    rng = np.random.default_rng(6)
    for width in (1, 2, 4):
        for smallest in (0.0, 1e-14, 1e-12, 1e-6, 0.3, 1.0):
            u, _ = np.linalg.qr(rng.standard_normal((9, width)))
            vt, _ = np.linalg.qr(rng.standard_normal((width, width)))
            svals = np.linspace(1.0, smallest, width)
            m = (u * svals) @ vt
            q_ref, r_ref = qr_unchecked(m)
            scale = np.linalg.norm(m, 2)
            accept = scale > 0.0 and np.min(np.diag(r_ref)) >= rank_tol * scale
            try:
                q, r = householder_qr(m)
            except RankDeficient:
                assert not accept, (width, smallest)
            else:
                assert accept, (width, smallest)
                assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)


def test_qr_of_a_block_whose_squares_overflow():
    # the Frobenius screen is redone scaled by max|m|: no overflow warning
    b = np.random.default_rng(12).standard_normal((40, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, r = householder_qr(b * 1e160)
    assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-14
    assert np.linalg.norm(q @ (r / 1e160) - b) < 1e-14


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(8, 3), (5, 1)])
def test_qr_rejects_a_non_finite_block(value, shape):
    m = np.random.default_rng(11).standard_normal(shape)
    m[2, -1] = value
    with pytest.raises(NonFiniteOperator, match="block"):
        householder_qr(m)


def test_qr_shape_errors():
    with pytest.raises(ShapeMismatch):
        householder_qr(np.ones(5))
    with pytest.raises(ShapeMismatch):
        householder_qr(np.ones((2, 4)))


def test_qr_unchecked_tolerates_collapse():
    col = np.arange(1.0, 7.0).reshape(6, 1)
    q, r = qr_unchecked(np.hstack([col, col]))
    assert q.shape == (6, 2)
    assert np.linalg.norm(q.T @ q - np.eye(2)) < 1e-14
    # the dependent column leaves a zero on the diagonal
    assert abs(r[1, 1]) < 1e-14


def test_sym_eig_round_trip():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((9, 9))
    a = g + g.T
    w, s = sym_eig(a)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm(s @ np.diag(w) @ s.T - a) < 1e-12 * np.linalg.norm(a)


def test_sym_eig_symmetrizes_first():
    a = np.array([[2.0, 1.0], [1.0 + 3e-13, 5.0]])
    w, _ = sym_eig(a)
    ref = np.linalg.eigvalsh(0.5 * (a + a.T))
    assert np.allclose(w, ref, rtol=0, atol=1e-14)


def test_sym_eig_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        sym_eig(np.ones((3, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sym_eig_rejects_non_finite_input(value):
    # LAPACK hands back NaN eigenpairs here without a word
    t = np.eye(3)
    t[0, 1] = t[1, 0] = value
    with pytest.raises(NonFiniteOperator):
        sym_eig(t)


def test_truncated_svd_exact_rank():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((10, 2))
    w = u @ rng.standard_normal((2, 3))
    u_t, b, rank = truncated_svd(w, 1e-10)
    assert rank == 2
    assert u_t.shape == (10, 2) and b.shape == (2, 3)
    assert np.linalg.norm(u_t @ b - w) < 1e-12
    assert np.linalg.norm(u_t.T @ u_t - np.eye(2)) < 1e-13


def test_truncated_svd_tol_cut():
    # singular values 3, 1e-6: a cutoff between them keeps rank one
    u, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((7, 2)))
    w = u @ np.diag([3.0, 1e-6])
    _, _, rank = truncated_svd(w, 1e-3)
    assert rank == 1
    _, _, rank = truncated_svd(w, 1e-9)
    assert rank == 2
    u_t, b, rank = truncated_svd(w, 10.0)
    assert rank == 0 and u_t.shape == (7, 0) and b.shape == (0, 2)


def test_truncated_svd_rejects_negative_tol():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 2)), -1.0)


def test_norm_helpers_match_numpy():
    rng = np.random.default_rng(9)
    # the direct SVD is the one norm(., 2) runs: equal bits on every shape
    for shape in [(6, 3), (120, 2), (3, 6), (2, 120), (1, 1), (40, 1), (1, 40), (3, 3),
                  (4, 4)]:
        for _ in range(5):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
            assert panel_norm(x) == float(np.linalg.norm(x, 2)), shape
    assert panel_norm(np.zeros((4, 0))) == 0.0
    assert panel_norm(np.zeros((0, 3))) == 0.0
    g = rng.standard_normal((5, 5))
    s = g + g.T
    assert np.isclose(Operator(s).norm, np.linalg.norm(s, 2), rtol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 5), (8, 3), (3, 8)])
def test_panel_norm_rejects_a_non_finite_block(value, shape):
    # LAPACK raises "SVD did not converge" on some of these and returns NaN on others
    x = np.random.default_rng(13).standard_normal(shape)
    x[0, -1] = value
    with pytest.raises(NonFiniteOperator, match="NaN or infinite"):
        panel_norm(x)


def test_panel_norm_of_a_finite_block_whose_norm_overflows_is_inf():
    assert panel_norm(np.full((2, 2), 1e308)) == np.inf


@pytest.mark.parametrize("w", [np.ones(4), np.ones((2, 3, 2))])
def test_truncated_svd_rejects_a_block_that_is_not_2d(w):
    with pytest.raises(ShapeMismatch, match="2-d"):
        truncated_svd(w, 0.0)


def test_reorthogonalize_rejects_row_counts_that_differ():
    basis, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((8, 3)))
    for w in (np.ones((7, 2)), np.ones((9, 2))):
        with pytest.raises(ShapeMismatch, match="rows"):
            reorthogonalize(w, basis)


def test_reorthogonalize_cleans_overlap():
    rng = np.random.default_rng(10)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    w = rng.standard_normal((20, 2)) + basis @ rng.standard_normal((6, 2))
    out = reorthogonalize(w, basis)
    assert np.linalg.norm(basis.T @ out) < 1e-13


def column_overlaps(x, basis):
    """|basis^T x_j| / |x_j| for every column j of x."""
    return np.linalg.norm(basis.T @ x, axis=0) / np.linalg.norm(x, axis=0)


def test_reorthogonalize_takes_a_second_pass_for_a_nearly_dependent_column():
    rng = np.random.default_rng(11)
    n = 50
    basis, _ = np.linalg.qr(rng.standard_normal((n, 10)))
    w = rng.standard_normal((n, 3))
    # column 1 lies about 1e-8 outside span(basis); the others are generic
    z = rng.standard_normal(n)
    w[:, 1] = basis @ rng.standard_normal(10) + 1e-8 * (z - basis @ (basis.T @ z))
    one_pass = w - basis @ (basis.T @ w)
    assert column_overlaps(one_pass, basis)[1] > 10 * n * EPS  # one pass is not enough here
    out = reorthogonalize(w, basis)
    assert np.all(column_overlaps(out, basis) <= 10 * n * EPS)


def test_reorthogonalize_makes_one_pass_when_one_is_enough():
    rng = np.random.default_rng(12)
    # a random column keeps about (n - m) / n > 1/2 of its squared norm
    for n, m, width in [(50, 10, 3), (120, 40, 2), (336, 100, 2)]:
        basis, _ = np.linalg.qr(rng.standard_normal((n, m)))
        w = rng.standard_normal((n, width))
        assert np.array_equal(reorthogonalize(w, basis), w - basis @ (basis.T @ w))


def test_reorthogonalize_at_a_scale_whose_squared_norms_overflow():
    # at 1e160 every squared column norm is inf, before the pass and after;
    # an overflowed norm must count as "not enough kept", or the columns
    # that lie mostly inside the basis keep their first-pass overlap
    rng = np.random.default_rng(13)
    n, scale = 60, 1e160
    basis, _ = np.linalg.qr(rng.standard_normal((n, 30)))
    worst = 0.0
    for _ in range(200):
        inside = basis @ rng.standard_normal(30)
        z = rng.standard_normal(n)
        outside = z - basis @ (basis.T @ z)
        ratio = rng.uniform(1e-3, 0.5) * np.linalg.norm(inside) / np.linalg.norm(outside)
        w = scale * (inside + ratio * outside)[:, None]
        assert not np.isfinite(np.vdot(w, w))
        out = reorthogonalize(w, basis) / scale
        worst = max(worst, float(column_overlaps(out, basis)[0]))
    assert worst <= 1e-15


# sym_eig of one dense block tridiagonal, such as T_k or T_N: the "block form"
# the tests below are named for is that input, solved by one symmetrized eigh
def random_block_tridiagonal(sizes, seed, scale=1.0, skew=0.0):
    """A dense block tridiagonal with symmetric diagonal blocks (the first
    one plus a random, asymmetric perturbation of relative size ``skew``,
    as a continuation's first block carries) and full, non-triangular
    couplings below the diagonal, their transposes above."""
    rng = np.random.default_rng(seed)
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    t = np.zeros((edges[-1], edges[-1]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        g = rng.standard_normal((hi - lo, hi - lo))
        t[lo:hi, lo:hi] = scale * (g + g.T)
    t[: sizes[0], : sizes[0]] += skew * scale * rng.standard_normal((sizes[0], sizes[0]))
    for lo, mid, hi in zip(edges[:-2], edges[1:-1], edges[2:]):
        t[mid:hi, lo:mid] = scale * rng.standard_normal((hi - mid, mid - lo))
        t[lo:mid, mid:hi] = t[mid:hi, lo:mid].T
    return t


@st.composite
def shrinking_sizes(draw):
    # widths never grow down the diagonal; 1x1 blocks and a single block included
    first = draw(st.integers(1, 4))
    drops = draw(st.lists(st.integers(0, 1), min_size=0, max_size=9))
    sizes = [first]
    for d in drops:
        if sizes[-1] - d < 1:
            break
        sizes.append(sizes[-1] - d)
    return sizes


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    sizes=shrinking_sizes(),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    skew=st.sampled_from([0.0, 1e-13, 0.3]),
)
def test_sym_eig_block_form_matches_dense(sizes, seed, scale, skew):
    # LAPACK's eigensolver test ratios, with c fixed beforehand
    c = 10.0
    eps = np.finfo(float).eps
    t = random_block_tridiagonal(sizes, seed, scale, skew)
    sym = 0.5 * (t + t.T)
    dim = t.shape[0]
    t_norm = np.linalg.norm(sym, 2)
    w_ref = np.linalg.eigvalsh(sym)
    w, s = sym_eig(t)
    assert w.shape == (dim,) and s.shape == (dim, dim)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - w_ref)) <= c * dim * eps * t_norm
    assert np.linalg.norm(sym @ s - s * w, 2) <= c * dim * eps * t_norm
    assert np.linalg.norm(s.T @ s - np.eye(dim), 2) <= c * dim * eps


@pytest.mark.parametrize("sizes", [[1], [3, 3, 2, 2, 1], [4, 4, 4]])
@pytest.mark.parametrize("skew", [0.0, 0.3])
def test_sym_eig_block_form_is_the_dense_solve(sizes, skew):
    # the symmetrized eigh, bit for bit, also on a skewed first block
    t = random_block_tridiagonal(sizes, seed=5, skew=skew)
    w, s = sym_eig(t)
    w_ref, s_ref = np.linalg.eigh(0.5 * (t + t.T))
    assert np.array_equal(w, w_ref) and np.array_equal(s, s_ref)


def test_sym_eig_empty_block_form():
    w, s = sym_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and s.shape == (0, 0)


@pytest.mark.parametrize("where", ["first_alpha", "last_alpha", "beta"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sym_eig_block_form_rejects_non_finite_blocks(where, value):
    t = random_block_tridiagonal([3, 2, 2, 1], seed=11)
    # a lower-triangle entry of the first diagonal block, the last diagonal
    # entry and a coupling entry: refused wherever it sits, before the eigh
    row, col = {"first_alpha": (2, 0), "last_alpha": (7, 7), "beta": (6, 3)}[where]
    t[row, col] = value
    with pytest.raises(NonFiniteOperator):
        sym_eig(t)


def test_operator_is_checked_when_built_and_factored_at_first_solve():
    for bad, error in [(np.ones((3, 4)), ShapeMismatch), (np.float64(2.0), ShapeMismatch),
                       (np.ones((2, 2, 2)), ShapeMismatch),
                       (np.array([1.0, np.nan]), NonFiniteOperator),
                       (np.array([[1.0, np.inf], [np.inf, 1.0]]), NonFiniteOperator),
                       (np.array([[1.0, 2.0], [0.0, 1.0]]), NotSymmetric)]:
        with pytest.raises(error):
            Operator(bad)
    for not_spd in (np.diag([1.0, -2.0]), np.array([1.0, -2.0]), np.array([1.0, 0.0])):
        op = Operator(not_spd)  # building needs no definiteness
        with pytest.raises(NotPositiveDefinite):
            op.solve(np.ones((2, 1)))
    d = np.array([3.0, 0.5, 2.0, 7.0])
    b = np.random.default_rng(10).standard_normal((4, 2))
    dense, diag = Operator(np.diag(d)), Operator(d)
    assert as_operator(dense) is dense and as_operator(d).shape == (4, 4)
    assert np.array_equal(dense.eigvals, diag.eigvals) and dense.norm == diag.norm == 7.0
    assert np.array_equal(dense @ b, diag @ b)
    assert np.array_equal(dense.solve(b), diag.solve(b))


@pytest.mark.parametrize("diagonal", [False, True])
def test_operator_solve_leaves_a_small_residual(diagonal):
    # block CG measures its trace error against this solution, so its
    # relative residual is the floor of every error curve
    eigs = np.linspace(0.1, 100.0, 48)
    op = Operator(eigs if diagonal else spectrum_to_matrix(eigs, 5)[0])
    b = np.random.default_rng(12).standard_normal((48, 3))
    assert np.linalg.norm(b - op @ op.solve(b)) < 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("big", [1e155, 1e200])
def test_huge_finite_operator_builds_with_its_norm(big):
    # the plain sum of squares overflows; the norm is redone scaled by max|a|
    for a in (np.diag([big, 1.0]), np.array([big, 1.0]), np.diag([1.0, -big])):
        op = Operator(a)
        assert op.norm == big
    assert Operator(np.diag([big, 1.0]), np.array([1.0, big])).norm == big
    for bad in (np.diag([np.inf, big]), np.diag([big, np.nan]), np.array([big, np.inf]),
                np.array([np.nan, big])):
        with pytest.raises(NonFiniteOperator):
            Operator(bad)
    for asymmetric in (np.array([[big, big], [0.0, 1.0]]), np.array([[big, 1e-6 * big],
                                                                   [1e-5 * big, 1.0]])):
        with pytest.raises(NotSymmetric):
            Operator(asymmetric)


def test_operator_seeded_with_its_spectrum_is_not_eigensolved(monkeypatch):
    eigs = np.array([0.5, 1.0, 1.0, 4.0])  # ascending, with a tie
    a = np.diag(eigs[::-1])
    for bad, error in [(eigs[:3], ShapeMismatch), (eigs[:, None], ShapeMismatch),
                       (np.array([0.5, np.nan, 1.0, 4.0]), NonFiniteOperator),
                       (np.array([0.5, 1.0, 1.0, np.inf]), NonFiniteOperator),
                       (eigs[::-1], ValueError),
                       # right length and order, but not A's spectrum: scaled or one value stale
                       (2.0 * eigs, ValueError), (np.array([0.5, 1.0, 1.0, 4.001]), ValueError)]:
        with pytest.raises(error):
            Operator(a, bad)

    def unexpected(*args, **kwargs):
        raise AssertionError("a seeded Operator called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", unexpected)
    monkeypatch.setattr(np.linalg, "eigh", unexpected)
    spectrum = np.array([-7.5, 0.25, 3.0, 6.0])
    op = Operator(np.diag(spectrum), spectrum)
    assert np.array_equal(op.eigvals, spectrum) and op.eigvals is not spectrum
    assert op.norm == float(np.max(np.abs(spectrum))) == 7.5
    assert not op.eigvals.flags.writeable and spectrum.flags.writeable
    with pytest.raises(ValueError):
        op.eigvals[0] = 1.0
    rng = np.random.default_rng(12)
    drawn = np.sort(rng.uniform(-3.0, 2.0, 50))
    assert Operator(np.diag(drawn), drawn).norm == float(np.max(np.abs(drawn)))
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))  # a rotated A passes the Frobenius check
    assert Operator((q * drawn) @ q.T, drawn).norm == float(np.max(np.abs(drawn)))
