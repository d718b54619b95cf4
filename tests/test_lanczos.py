"""Driver invariants, termination, diagnostics, and Ritz analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlockLanczosError,
    NonFiniteOperator,
    NotSymmetric,
    RankDeficientStart,
    ShapeMismatch,
    densify,
    ritz_analysis,
    run_block_lanczos,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
)
from blocklanczos.lanczos import BREAKDOWN_TOL, MODES
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
    assert np.linalg.norm(t - basis.T @ a @ basis) < 1e-12 * run.a_norm
    # full depth: the block tridiagonal is orthogonally similar to a
    assert np.allclose(np.linalg.eigvalsh(t), eigs, atol=1e-10 * run.a_norm)
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
    assert np.linalg.norm(res) < 1e-12 * run.a_norm


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
    assert np.linalg.norm(run.beta_next) < BREAKDOWN_TOL * run.a_norm * 10
    rs = ritz_analysis(run, 2)
    assert np.allclose(np.sort(rs.thetas), eigs[:4], atol=1e-10)
    last = run.diagnostics[-1]
    assert last.local_orth == 0.0 and last.global_orth == 0.0


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
    assert run.a_norm == 0.0 and np.all(run.beta_next == 0.0)
    assert np.all(run.t.alphas[0] == 0.0)
    assert run.diagnostics[0].beta_norm == 0.0


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
    step and a re-stacked prefix for the global overlap."""
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
        rows.append((j, np.linalg.norm(res, 2), np.linalg.norm(vj.T @ vj - eye, 2), local,
                     np.linalg.norm(beta, 2), glob))
    return rows


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
    oracle = _restacked_diagnostics(run)
    assert len(run.diagnostics) == len(oracle) == run.n_steps
    for row, (j, delta, normality, local, beta, glob) in zip(run.diagnostics, oracle):
        assert row.j == j and row.beta_norm == beta
        assert abs(row.delta_v_norm - delta) <= band * run.a_norm
        assert abs(row.normality - normality) <= band
        assert abs(row.local_orth - local) <= band
        assert abs(row.global_orth - glob) <= band


def test_diagnostics_match_direct_recomputation():
    a, _, rng = rand_spd(20, 25)
    v = rng.standard_normal((20, 2))
    run = run_block_lanczos(a, v, k_max=6)
    rows = run.diagnostics
    assert [r.j for r in rows] == [1, 2, 3, 4, 5, 6]
    r3 = rows[2]
    res = (
        a @ run.panels[2]
        - run.panels[2] @ run.t.alphas[2]
        - run.panels[1] @ run.t.betas[1].T
        - run.panels[3] @ run.t.betas[2]
    )
    assert np.isclose(r3.delta_v_norm, np.linalg.norm(res, 2), rtol=1e-12)
    assert np.isclose(
        r3.normality,
        np.linalg.norm(run.panels[2].T @ run.panels[2] - np.eye(2), 2),
        rtol=1e-12,
    )
    assert np.isclose(r3.beta_norm, np.linalg.norm(run.t.betas[2], 2), rtol=1e-12)


def test_finite_precision_loses_global_orthogonality():
    spec = strakos48(0.1, 100.0)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    fp = run_block_lanczos(a, v, k_max=24, mode="finite_precision")
    ex = run_block_lanczos(a, v, k_max=24, mode="simulated_exact")
    assert max(r.global_orth for r in fp.diagnostics) > 1e-6
    assert max(r.global_orth for r in ex.diagnostics) < 1e-12


def test_finite_precision_local_quantities_stay_at_roundoff():
    # global orthogonality decays, but the three local measures must sit
    # near machine precision scaled by the operator norm
    spec = strakos48(0.1, 100.0)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=24)
    band = 10.0 * 48 * 2 * EPS
    for r in run.diagnostics:
        assert r.delta_v_norm <= band * run.a_norm
        assert r.normality <= band
        assert r.local_orth <= band * run.a_norm


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
    assert run.a_norm == ref.a_norm and run.terminated == ref.terminated
    assert run.diagnostics == ref.diagnostics
