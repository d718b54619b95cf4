"""Selection, protected-basis construction, continuation, assembly."""

import numpy as np
import pytest

from blocklanczos import (
    BlockTridiagonal,
    CapReached,
    ContinuationResult,
    EmptySelection,
    NearDependentRitzVectors,
    assemble_tn,
    build_wk,
    continuation_first_step,
    continuation_run,
    continue_prefix,
    densify,
    kron_perturbed_problem,
    monitored_terms,
    prefix_terms,
    run_block_lanczos,
    select_ritz_vectors,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
)


@pytest.fixture(scope="module")
def pipeline():
    """One finite-precision run carried through the whole continuation."""
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=12)
    k = run.n_steps
    pc = continue_prefix(run, k, 1e-5)
    fp = [row.delta_v_norm for row in run.diagnostics[:k]]
    return dict(
        a=a, run=run, k=k, ritz=pc.ritz, sel=pc.selection, w_k=pc.w_k, r_k=pc.r_k,
        fp=fp, cont=pc.cont, report=pc.report,
    )


def test_selection_threshold_is_strict(pipeline):
    ritz, sel, run = pipeline["ritz"], pipeline["sel"], pipeline["run"]
    assert sel.threshold == 1e-5 * run.a_norm
    assert np.all(ritz.deltas[sel.indices] > sel.threshold)
    mask = np.ones(ritz.deltas.size, bool)
    mask[sel.indices] = False
    assert np.all(ritz.deltas[mask] <= sel.threshold)
    assert sel.m == sel.indices.size
    assert sel.deltas_selected.size + sel.deltas_unselected.size == ritz.deltas.size


def test_selection_rejects_bad_mu(pipeline):
    ritz, run = pipeline["ritz"], pipeline["run"]
    with pytest.raises(ValueError):
        select_ritz_vectors(ritz, 0.0, run.a_norm)
    with pytest.raises(EmptySelection):
        select_ritz_vectors(ritz, 1e6, run.a_norm)


def test_build_wk_factors(pipeline):
    ritz, sel = pipeline["ritz"], pipeline["sel"]
    z_sel = ritz.z[:, sel.indices]
    w_k, r_k, rho = build_wk(z_sel)
    assert np.linalg.norm(w_k.T @ w_k - np.eye(sel.m)) < 1e-13
    assert np.linalg.norm(w_k @ r_k - z_sel) < 1e-12
    assert np.isclose(rho, 1.0 / np.linalg.svd(r_k, compute_uv=False)[-1], rtol=1e-12)


def test_build_wk_refuses_near_dependence():
    rng = np.random.default_rng(44)
    c = rng.standard_normal((20, 1))
    z = np.hstack([c, c * (1.0 + 1e-12)])
    with pytest.raises(NearDependentRitzVectors):
        build_wk(z)


def test_continuation_basis_is_orthonormal(pipeline):
    w_k, cont = pipeline["w_k"], pipeline["cont"]
    guard = np.hstack([w_k] + cont.q_panels)
    defect = np.linalg.norm(guard.T @ guard - np.eye(guard.shape[1]))
    assert defect < 1e-11


def test_continuation_blocks_satisfy_the_recurrence(pipeline):
    a, cont, run = pipeline["a"], pipeline["cont"], pipeline["run"]
    # interior couplings must match the Rayleigh quotients of the panels
    for j in range(2, len(cont.q_panels)):
        want = cont.q_panels[j].T @ a @ cont.q_panels[j - 1]
        got = cont.betas[j]
        assert np.linalg.norm(got - want) < 1e-10 * run.a_norm
    for j in range(1, len(cont.alphas)):
        q = cont.q_panels[j]
        want = q.T @ a @ q
        assert np.linalg.norm(cont.alphas[j] - want) < 1e-10 * run.a_norm


def test_continuation_terminates_with_zero_rank(pipeline):
    cont = pipeline["cont"]
    # one h entry per step; the closing step keeps no panel
    assert cont.n_steps == len(cont.q_panels) + 1
    assert all(w > 0 for w in cont.widths)
    assert len(cont.alphas) == len(cont.q_panels)
    assert len(cont.betas) == len(cont.q_panels)


def test_epsilon2_formula(pipeline):
    cont, fp, run = pipeline["cont"], pipeline["fp"], pipeline["run"]
    want = max(list(fp) + list(cont.h_norms)) / run.a_norm
    assert cont.epsilon2 == want
    assert 0.0 < cont.epsilon2 < 1e-4


def test_continuation_cap_and_tol_validation(pipeline):
    run, k, w_k = pipeline["run"], pipeline["k"], pipeline["w_k"]
    with pytest.raises(CapReached):
        continuation_run(run, k, w_k, n_cap=1)
    with pytest.raises(ValueError):
        continuation_run(run, k, w_k, svd_tol=0.0)
    for bad_k in (0, run.n_steps + 1):
        with pytest.raises(ValueError):
            continuation_first_step(run, bad_k, w_k)


def test_assemble_tn_structure(pipeline):
    run, k, cont = pipeline["run"], pipeline["k"], pipeline["cont"]
    t_n = assemble_tn(run.t, cont)
    t_n.check_structure()
    assert t_n.n_blocks == k + len(cont.q_panels)
    assert t_n.dim == k * run.width + sum(cont.widths)
    for j in range(k):
        assert np.array_equal(t_n.alphas[j], run.t.alphas[j])
        assert not np.shares_memory(t_n.alphas[j], run.t.alphas[j])
    assert np.array_equal(t_n.betas[k - 1], cont.betas[0])


def test_assemble_tn_empty_continuation():
    t_k = BlockTridiagonal([np.eye(2) * 3.0, np.eye(2) * 4.0], [np.eye(2)])
    cont = ContinuationResult(
        q_panels=[], alphas=[], betas=[], h_panels=[np.zeros((4, 2))],
        h_norms=[0.0], epsilon2=0.0,
    )
    t_n = assemble_tn(t_k, cont)
    assert np.array_equal(densify(t_n), densify(t_k))


def test_decomposition_reports_small_remainders(pipeline):
    cont, report, run = pipeline["cont"], pipeline["report"], pipeline["run"]
    assert report.term21a >= 0 and report.term21b >= 0 and report.term22 >= 0
    assert len(report.delta_norms) == len(cont.h_panels)
    # closed forms explain the recorded panels down to roundoff
    assert max(report.delta_norms) < 1e-10 * run.a_norm


def test_first_step_continuation():
    # k = 1 has no trailing term: v_prev and beta_k are absent
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 2)
    v = np.random.default_rng(2).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=1)
    pc = continue_prefix(run, 1, 1e-5)
    t_n = assemble_tn(run.t, pc.cont)
    t_n.check_structure()
    assert len(pc.report.delta_norms) == len(pc.cont.h_panels)
    assert t_n.dim == 2 + sum(pc.cont.widths)


def _prefix_term_runs():
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    yield run_block_lanczos(a, v, k_max=24)
    a, v = kron_perturbed_problem(strakos48(0.1, 100.0), 2, 1e-12, 5)
    yield run_block_lanczos(a, v, k_max=24)


def test_prefix_terms_equal_full_continuation():
    # the prefix scan skips continuation past step 1 on the strength of this
    empty = 0
    for run in _prefix_term_runs():
        # 1e-2 leaves some prefixes with nothing to select
        for mu in (1e-5, 1e-2):
            for kk in range(1, run.n_steps + 1):
                try:
                    full = continue_prefix(run, kk, mu)
                except EmptySelection:
                    empty += 1
                    with pytest.raises(EmptySelection):
                        prefix_terms(run, kk, mu)
                    continue
                sel, terms = prefix_terms(run, kk, mu)
                report = full.report
                assert terms == (report.term21a, report.term21b, report.term22)
                assert sel.m == full.selection.m
                assert np.array_equal(sel.indices, full.selection.indices)
                assert sel.rho_k == full.selection.rho_k
    assert empty > 0


def test_first_step_is_step_one_of_the_run(pipeline):
    run, k, w_k, cont = pipeline["run"], pipeline["k"], pipeline["w_k"], pipeline["cont"]
    step = continuation_first_step(run, k, w_k)
    assert step.rank == cont.widths[0]
    assert np.array_equal(step.u_t, cont.q_panels[0])
    assert np.array_equal(step.b_new, cont.betas[0])
    assert np.array_equal(step.h_panel, cont.h_panels[0])
    assert np.array_equal(step.raw - step.u_t @ step.b_new, step.h_panel)


def test_monitored_terms_without_step_one_coupling(pipeline):
    args = (pipeline["run"], pipeline["k"], pipeline["ritz"], pipeline["sel"],
            pipeline["w_k"], pipeline["r_k"])
    term21a, term21b, term22 = monitored_terms(*args, None)
    assert (term21b, term22) == (0.0, 0.0)
    assert term21a == pipeline["report"].term21a
