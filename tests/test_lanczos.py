"""Driver invariants, termination, diagnostics, and Ritz analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlockLanczosError,
    BlockTridiagonal,
    Diagnostics,
    NonFiniteOperator,
    NotSymmetric,
    RankDeficientStart,
    ShapeMismatch,
    SpectrumSpec,
    densify,
    ritz_analysis,
    run_block_lanczos,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
    sym_eig,
)
from blocklanczos.lanczos import BREAKDOWN_TOL, GRAM_CHUNK, MODES
from conftest import rand_spd

EPS = float(np.finfo(float).eps)


def test_exact_mode_reproduces_the_operator():
    a, eigs, rng = rand_spd(24, 21)
    v = rng.standard_normal((24, 3))
    run = run_block_lanczos(a, v, k_max=8, mode="simulated_exact")
    assert run.n_steps == 8 and run.width == 3
    basis = np.hstack(run.panels[:8])
    assert np.linalg.norm(basis.T @ basis - np.eye(24)) < 1e-13
    t = densify(run.t)
    assert np.linalg.norm(t - basis.T @ a @ basis) < 1e-12 * run.a.norm
    # full depth: the block tridiagonal is orthogonally similar to a
    assert np.allclose(np.linalg.eigvalsh(t), eigs, atol=1e-10 * run.a.norm)
    for r in run.t.betas:
        assert np.allclose(r, np.triu(r)) and np.all(np.diag(r) > 0)


def test_capped_run_keeps_trailing_panel():
    a, _, rng = rand_spd(30, 22)
    v = rng.standard_normal((30, 2))
    run = run_block_lanczos(a, v, k_max=5)
    assert not run.terminated
    assert run.n_steps == 5
    assert len(run.panels) == 6
    assert run.beta_next.shape == (2, 2)
    # the trailing coupling closes the recurrence for the last step
    j = 5
    res = (
        a @ run.panels[j - 1]
        - run.panels[j - 1] @ run.t.alphas[j - 1]
        - run.panels[j - 2] @ run.t.betas[j - 2].T
        - run.panels[j] @ run.beta_next
    )
    assert np.linalg.norm(res) < 1e-12 * run.a.norm


def test_natural_termination_on_invariant_subspace():
    a, eigs, rng = rand_spd(16, 23)
    _, u = np.linalg.eigh(a)
    # start inside the span of four eigenvectors: the recurrence must
    # close after two width-2 steps
    v = u[:, :4] @ rng.standard_normal((4, 2))
    run = run_block_lanczos(a, v, k_max=8, mode="simulated_exact")
    assert run.terminated
    assert run.n_steps == 2
    assert len(run.panels) == 2
    assert np.linalg.norm(run.beta_next) < BREAKDOWN_TOL * run.a.norm * 10
    rs = ritz_analysis(run, 2)
    assert np.allclose(np.sort(rs.thetas), eigs[:4], atol=1e-10)
    diag = run.diagnostics
    assert diag.local_orth[-1] == 0.0 and diag.global_orth[-1] == 0.0


def test_input_validation():
    a, _, rng = rand_spd(12, 24)
    v = rng.standard_normal((12, 2))
    bad = a.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(NotSymmetric):
        run_block_lanczos(bad, v, k_max=2)
    with pytest.raises(ShapeMismatch):
        run_block_lanczos(np.ones((3, 4)), v, k_max=1)
    with pytest.raises(ShapeMismatch):
        run_block_lanczos(a, v[:, 0], k_max=2)
    with pytest.raises(ShapeMismatch):
        run_block_lanczos(a, v[:5], k_max=2)
    with pytest.raises(ShapeMismatch):
        run_block_lanczos(a, v[:, :0], k_max=2)
    with pytest.raises(ValueError):
        run_block_lanczos(a, v, k_max=0)
    with pytest.raises(ValueError):
        run_block_lanczos(a, v, k_max=7)  # 7 * 2 > 12
    with pytest.raises(ValueError):
        run_block_lanczos(a, v, k_max=2, mode="fast")
    dep = np.hstack([v[:, :1], v[:, :1]])
    with pytest.raises(RankDeficientStart):
        run_block_lanczos(a, dep, k_max=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_operator_is_a_typed_failure(value):
    a, _, rng = rand_spd(12, 25)
    v = rng.standard_normal((12, 2))
    bad = a.copy()
    bad[3, 5] = bad[5, 3] = value
    with pytest.raises(NonFiniteOperator) as info:
        run_block_lanczos(bad, v, k_max=2)
    assert isinstance(info.value, BlockLanczosError)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_start_block_is_a_typed_failure(value):
    a, _, rng = rand_spd(12, 26)
    v = rng.standard_normal((12, 2))
    v[7, 0] = value
    with pytest.raises(NonFiniteOperator, match="block"):
        run_block_lanczos(a, v, k_max=2)


def test_near_dependent_panel_below_breakdown_terminates():
    # the second start column is an eigenvector up to 1e-14, so the next
    # panel has one direction of size ~2e-14: the breakdown test at 1e-12,
    # the step's only rank test, ends the run there
    a = np.diag(np.arange(1.0, 7.0))
    v = np.zeros((6, 2))
    v[[0, 1], 0] = 1.0
    v[2, 1], v[4, 1] = 1.0, 1e-14
    run = run_block_lanczos(a, v, k_max=2)
    assert run.terminated and run.n_steps == 1


def test_zero_operator_terminates_after_one_step():
    v = np.random.default_rng(28).standard_normal((10, 2))
    run = run_block_lanczos(np.zeros((10, 10)), v, k_max=4)
    assert run.terminated and run.n_steps == 1 and len(run.panels) == 1
    assert run.a.norm == 0.0 and np.all(run.beta_next == 0.0)
    assert np.all(run.t.alphas[0] == 0.0)
    assert run.diagnostics.beta_norm[0] == 0.0


def test_panels_are_read_only_views_of_the_basis():
    a, _, rng = rand_spd(20, 29)
    run = run_block_lanczos(a, rng.standard_normal((20, 3)), k_max=4)
    assert run.basis.shape == (20, 15) and run.panels.shape == (5, 20, 3)
    assert np.shares_memory(run.panels, run.basis)
    assert np.array_equal(run.panels[2], run.basis[:, 6:9])
    with pytest.raises(ValueError):
        run.panels[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        run.basis[0, 0] = 1.0


def _restacked_diagnostics(run):
    """The diagnostics recomputed from the stored panels, one product per
    step and a re-stacked prefix for the global overlap, as columns."""
    a, panels, eye = run.a, run.panels, np.eye(run.width)
    alphas, betas, big_k = run.t.alphas, run.t.betas, run.n_steps
    rows = []
    for j in range(1, big_k + 1):
        vj = panels[j - 1]
        res = a @ vj - vj @ alphas[j - 1]
        if j > 1:
            res = res - panels[j - 2] @ betas[j - 2].T
        beta = betas[j - 1] if j < big_k else run.beta_next
        local = glob = 0.0
        if j < big_k or not run.terminated:
            trail = panels[j] @ beta
            res = res - trail
            local = np.linalg.norm(vj.T @ trail, 2)
            glob = np.linalg.norm(np.hstack(list(panels[:j])).T @ panels[j], 2)
        rows.append((np.linalg.norm(res, 2), np.linalg.norm(vj.T @ vj - eye, 2), local,
                     np.linalg.norm(beta, 2), glob))
    return Diagnostics(*np.array(rows).T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(3, 80),
    k_frac=st.floats(0.0, 1.0),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
def test_single_pass_diagnostics_match_restacked_oracle(p, n, k_frac, mode, seed):
    a, _, rng = rand_spd(n, seed, low=0.01, high=10.0)
    k_max = max(1, int(k_frac * (n // p)))
    run = run_block_lanczos(a, rng.standard_normal((n, p)), k_max=k_max, mode=mode)
    # the basis columns are the panels, bit for bit
    assert np.array_equal(run.basis, np.hstack(list(run.panels)))
    assert run.basis.shape == (n, len(run.panels) * p)
    band = 10.0 * n * p * EPS
    diag, oracle = run.diagnostics, _restacked_diagnostics(run)
    for column in diag:  # one read-only float64 entry per step
        assert column.shape == (run.n_steps,) and column.dtype == np.float64
        assert not column.flags.writeable
    assert np.array_equal(diag.beta_norm, oracle.beta_norm)
    assert np.all(np.abs(diag.delta_v_norm - oracle.delta_v_norm) <= band * run.a.norm)
    assert np.all(np.abs(diag.normality - oracle.normality) <= band)
    assert np.all(np.abs(diag.local_orth - oracle.local_orth) <= band)
    assert np.all(np.abs(diag.global_orth - oracle.global_orth) <= band)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(1, 4),
    n=st.integers(1, 80),
    count=st.integers(1, 6),
    zero=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)
def test_stacked_svd_is_the_per_block_spectral_norm(p, n, count, zero, seed):
    # the diagnostics norm their p x p blocks in one stacked SVD and each
    # n x p residual through svd(...)[0]: both are norm(block, 2) bit for bit
    rng = np.random.default_rng(seed)
    for shape in ((count, 3, p, p), (count, max(n, p), p)):
        scales = 10.0 ** rng.uniform(-16.0, 3.0, shape[:-2] + (1, 1))
        stack = rng.standard_normal(shape) * scales
        stack[zero : zero + 1] = 0.0  # one zero block (group), unless zero >= count
        got = np.linalg.svd(stack, compute_uv=False)[..., 0]
        want = np.reshape([np.linalg.norm(b, 2) for b in stack.reshape((-1,) + shape[-2:])],
                          shape[:-2])
        assert np.array_equal(got, want)


def _check_global_orth(run):
    """global_orth is within 10 n p eps of norm(V_k^T v_{k+1}, 2) per step,
    and nonzero exactly where v_{k+1} is stored."""
    n, p = run.basis.shape[0], run.width
    got = run.diagnostics.global_orth
    want = [np.linalg.norm(run.basis[:, : k * p].T @ run.panels[k], 2)
            if k < len(run.panels) else 0.0 for k in range(1, run.n_steps + 1)]
    assert np.max(np.abs(got - want)) <= 10.0 * n * p * EPS
    assert np.array_equal(got > 0.0, np.arange(1, run.n_steps + 1) < len(run.panels))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k_max", [1, GRAM_CHUNK - 1, GRAM_CHUNK, GRAM_CHUNK + 1,
                                   2 * GRAM_CHUNK, 2 * GRAM_CHUNK + 1])
def test_global_orth_chunks_match_the_per_step_norm(k_max, mode):
    # one Gram product per GRAM_CHUNK panels; k_max straddles the chunk edges
    n, p = 80, 2
    a, _, rng = rand_spd(n, 40 + k_max, low=0.01, high=10.0)
    run = run_block_lanczos(a, rng.standard_normal((n, p)), k_max=k_max, mode=mode)
    assert not run.terminated and run.diagnostics.global_orth.shape == (k_max,)
    _check_global_orth(run)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("steps", [GRAM_CHUNK, GRAM_CHUNK + 1, GRAM_CHUNK + 2,
                                   2 * GRAM_CHUNK + 1])
def test_terminated_run_ends_mid_chunk_or_on_a_chunk_edge(steps, p):
    # the start block spans an invariant subspace of steps * p coordinates,
    # so the run closes at that step; panels 1 .. steps - 1 have a global_orth
    # entry, which fills the last chunk exactly at steps - 1 = GRAM_CHUNK or
    # 2 GRAM_CHUNK
    n = 80
    v = np.zeros((n, p))
    v[: steps * p] = np.random.default_rng(steps).standard_normal((steps * p, p))
    run = run_block_lanczos(np.linspace(1.0, 10.0, n), v, k_max=n // p,
                            mode="simulated_exact")
    assert run.terminated and run.n_steps == len(run.panels) == steps
    diag = run.diagnostics
    assert all(column.shape == (steps,) for column in diag)
    assert diag.local_orth[-1] == 0.0 and diag.global_orth[-1] == 0.0
    _check_global_orth(run)


def test_diagnostics_match_direct_recomputation():
    a, _, rng = rand_spd(20, 25)
    v = rng.standard_normal((20, 2))
    run = run_block_lanczos(a, v, k_max=6)
    diag = run.diagnostics
    assert all(column.shape == (6,) for column in diag)
    res = (
        a @ run.panels[2]
        - run.panels[2] @ run.t.alphas[2]
        - run.panels[1] @ run.t.betas[1].T
        - run.panels[3] @ run.t.betas[2]
    )
    assert np.isclose(diag.delta_v_norm[2], np.linalg.norm(res, 2), rtol=1e-12)
    assert np.isclose(
        diag.normality[2],
        np.linalg.norm(run.panels[2].T @ run.panels[2] - np.eye(2), 2),
        rtol=1e-12,
    )
    assert np.isclose(diag.beta_norm[2], np.linalg.norm(run.t.betas[2], 2), rtol=1e-12)


def test_finite_precision_loses_global_orthogonality():
    spec = strakos48(0.1, 100.0)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    fp = run_block_lanczos(a, v, k_max=24, mode="finite_precision")
    ex = run_block_lanczos(a, v, k_max=24, mode="simulated_exact")
    assert fp.diagnostics.global_orth.max() > 1e-6
    assert ex.diagnostics.global_orth.max() < 1e-12


@pytest.mark.parametrize("n,p,seed,scale", [(48, 1, 1, 1.0), (48, 3, 2, 1.0), (100, 4, 3, 1.0),
                                            (120, 2, 4, 1.0), (48, 2, 1, 1e160)])
def test_exact_mode_keeps_global_orthogonality_at_working_precision(n, p, seed, scale):
    # reorthogonalization mostly makes one pass; the run still stays
    # orthogonal to working precision through full depth, also (without
    # an overflow warning) on an operator whose squares overflow
    a, _ = spectrum_to_matrix(strakos_spectrum(SpectrumSpec(n, 0.1, 100.0, 0.9)), seed)
    v = np.random.default_rng(seed).standard_normal((n, p))
    run = run_block_lanczos(scale * a, v, k_max=n // p, mode="simulated_exact")
    assert run.n_steps >= n // p - 1
    assert run.diagnostics.global_orth.max() <= 10 * n * p * EPS


def test_finite_precision_local_quantities_stay_at_roundoff():
    # global orthogonality decays, but the three local measures must sit
    # near machine precision scaled by the operator norm
    spec = strakos48(0.1, 100.0)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=24)
    band = 10.0 * 48 * 2 * EPS
    diag = run.diagnostics
    assert np.all(diag.delta_v_norm <= band * run.a.norm)
    assert np.all(diag.normality <= band)
    assert np.all(diag.local_orth <= band * run.a.norm)


def test_ritz_analysis_exact_mode():
    a, _, rng = rand_spd(18, 26)
    v = rng.standard_normal((18, 2))
    run = run_block_lanczos(a, v, k_max=6, mode="simulated_exact")
    rs = ritz_analysis(run, 4)
    assert rs.k == 4 and rs.thetas.shape == (8,)
    assert np.all(np.diff(rs.thetas) >= 0)
    z = run.basis[:, :8] @ rs.s
    assert np.allclose(np.linalg.norm(z, axis=0), 1.0, atol=1e-12)
    want = np.linalg.norm(run.t.betas[3] @ rs.s[6:8, :], axis=0)
    assert np.allclose(rs.deltas, want, rtol=1e-13)
    # with orthonormal panels the classical bound is the residual norm
    for i in range(8):
        resid = np.linalg.norm(a @ z[:, i] - rs.thetas[i] * z[:, i])
        assert np.isclose(resid, rs.deltas[i], rtol=1e-6, atol=1e-10)


def test_ritz_analysis_k_range():
    a, _, rng = rand_spd(12, 27)
    run = run_block_lanczos(a, rng.standard_normal((12, 2)), k_max=4)
    with pytest.raises(ValueError):
        ritz_analysis(run, 0)
    with pytest.raises(ValueError):
        ritz_analysis(run, 5)
    rs = ritz_analysis(run, 4)
    # at the full run length the trailing stored coupling is used
    want = np.linalg.norm(run.beta_next @ rs.s[6:8, :], axis=0)
    assert np.allclose(rs.deltas, want, rtol=1e-13)


@pytest.mark.parametrize("mode", MODES)
def test_ritz_analysis_slices_one_dense_t_bit_for_bit(mode):
    # every prefix read from the cached dense T_K equals an eigensolve of
    # its own block tridiagonal prefix, to the last bit
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=24, mode=mode)
    assert "t_dense" not in vars(run)  # built on first use only
    for k in range(1, run.n_steps + 1):
        got = ritz_analysis(run, k)
        thetas, s = sym_eig(BlockTridiagonal(run.t.alphas[:k], run.t.betas[: k - 1]))
        beta = run.t.betas[k - 1] if k < run.n_steps else run.beta_next
        deltas = np.linalg.norm(beta @ s[(k - 1) * 2 :, :], axis=0)
        assert np.array_equal(got.thetas, thetas)
        assert np.array_equal(got.s, s)
        assert np.array_equal(got.deltas, deltas)
    assert np.array_equal(run.t_dense, densify(run.t))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(3, 60),
    k_frac=st.floats(0.0, 1.0),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
def test_diagonal_operator_matches_its_dense_form(p, n, k_frac, mode, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-10.0, 10.0, n)  # indefinite, with some zero eigenvalues
    d[rng.random(n) < 0.1] = 0.0
    v = rng.standard_normal((n, p))
    k_max = max(1, int(k_frac * (n // p)))
    ref = run_block_lanczos(np.diag(d), v, k_max=k_max, mode=mode)
    run = run_block_lanczos(d, v, k_max=k_max, mode=mode)
    assert np.array_equal(run.basis, ref.basis)
    for got, want in zip(run.t.alphas + run.t.betas + [run.beta_next],
                         ref.t.alphas + ref.t.betas + [ref.beta_next]):
        assert np.array_equal(got, want)
    assert (run.t.n_blocks, len(run.t.betas)) == (ref.t.n_blocks, len(ref.t.betas))
    assert run.a.norm == ref.a.norm and run.terminated == ref.terminated
    for got, want in zip(run.diagnostics, ref.diagnostics):
        assert np.array_equal(got, want)
