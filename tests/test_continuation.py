"""Selection, protected-basis construction, continuation, assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlockTridiagonal,
    CapReached,
    ContinuationResult,
    EmptySelection,
    NearDependentRitzVectors,
    ShapeMismatch,
    SpectrumSpec,
    assemble_tn,
    build_wk,
    continuation_run,
    continue_prefix,
    densify,
    interval_spread,
    kron_perturbed_problem,
    monitored_terms,
    panel_norm,
    prefix_terms,
    ritz_analysis,
    run_block_lanczos,
    select_ritz_vectors,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
    theorem1_certificate,
    truncated_svd,
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
        a=a, run=run, k=k, ritz=ritz_analysis(run, k), sel=pc.selection,
        w_k=pc.selection.w_k, fp=fp, cont=pc.cont, report=pc.report,
    )


def test_selection_threshold_is_strict(pipeline):
    ritz, sel, run = pipeline["ritz"], pipeline["sel"], pipeline["run"]
    assert sel.threshold == 1e-5 * run.a_norm
    assert np.all(ritz.deltas[sel.indices] > sel.threshold)
    mask = np.ones(ritz.deltas.size, bool)
    mask[sel.indices] = False
    assert np.all(ritz.deltas[mask] <= sel.threshold)
    assert sel.m == sel.indices.size
    assert np.array_equal(sel.s_m, ritz.s[:, sel.indices])


def test_selection_rejects_bad_mu(pipeline):
    run, k = pipeline["run"], pipeline["k"]
    with pytest.raises(ValueError):
        select_ritz_vectors(run, k, 0.0)
    with pytest.raises(EmptySelection):
        select_ritz_vectors(run, k, 1e6)


def test_build_wk_factors(pipeline):
    run, k, ritz, sel = pipeline["run"], pipeline["k"], pipeline["ritz"], pipeline["sel"]
    z_sel = (run.basis[:, : k * run.width] @ ritz.s)[:, sel.indices]
    w_k, r_k, rho = build_wk(z_sel)
    assert np.linalg.norm(w_k.T @ w_k - np.eye(sel.m)) < 1e-13
    assert np.linalg.norm(w_k @ r_k - z_sel) < 1e-12
    assert np.isclose(rho, 1.0 / np.linalg.svd(r_k, compute_uv=False)[-1], rtol=1e-12)
    # the selection is this factorization of these columns, bit for bit
    assert np.array_equal(w_k, sel.w_k) and np.array_equal(r_k, sel.r_k)
    assert rho == sel.rho_k


def test_build_wk_refuses_near_dependence():
    rng = np.random.default_rng(44)
    c = rng.standard_normal((20, 1))
    z = np.hstack([c, c * (1.0 + 1e-12)])
    with pytest.raises(NearDependentRitzVectors):
        build_wk(z)


def test_build_wk_refuses_a_zero_block():
    # every singular value is 0: refused as dependent, never 1 / sigma_min
    with pytest.raises(NearDependentRitzVectors):
        build_wk(np.zeros((5, 2)))


@pytest.mark.parametrize("shape", [(5, 0), (2, 3)])
def test_build_wk_needs_between_one_and_n_columns(shape):
    with pytest.raises(ShapeMismatch):
        build_wk(np.ones(shape))


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
    # the column cap: test_continuation_basis_cannot_outgrow_the_dimension
    run, k, w_k = pipeline["run"], pipeline["k"], pipeline["w_k"]
    for bad_tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="svd_tol"):
            continuation_run(run, k, w_k, svd_tol=bad_tol)
    for bad_k in (0, run.n_steps + 1):
        with pytest.raises(ValueError, match="k must be"):
            continuation_run(run, bad_k, w_k)
        with pytest.raises(ValueError):
            assemble_tn(run, bad_k, pipeline["cont"])


def test_continuation_basis_cannot_outgrow_the_dimension():
    # roundoff-level panels keep the rank above zero past n columns
    a, _ = spectrum_to_matrix(
        strakos_spectrum(SpectrumSpec(32, 0.09403341099463514, 100.0, 0.7098279207308458)), 5178)
    run = run_block_lanczos(a, np.random.default_rng(5179).standard_normal((32, 3)), k_max=6)
    with pytest.raises(CapReached, match="n = 32"):
        continue_prefix(run, 5, 0.0017252627729809967)


def test_assemble_tn_structure(pipeline):
    run, k, cont = pipeline["run"], pipeline["k"], pipeline["cont"]
    t_n = assemble_tn(run, k, cont)
    t_n.check_structure()
    assert t_n.n_blocks == k + len(cont.q_panels)
    assert t_n.dim == k * run.width + sum(cont.widths)
    for j in range(k):
        assert np.array_equal(t_n.alphas[j], run.t.alphas[j])
        assert not np.shares_memory(t_n.alphas[j], run.t.alphas[j])
    assert np.array_equal(t_n.betas[k - 1], cont.betas[0])


def test_assemble_tn_empty_continuation(pipeline):
    run, k = pipeline["run"], pipeline["k"]
    cont = ContinuationResult(
        q_panels=[], alphas=[], betas=[], h_panels=[np.zeros((48, 2))],
        h_norms=[0.0], epsilon2=0.0,
    )
    t_n = assemble_tn(run, k, cont)
    assert np.array_equal(densify(t_n), densify(run.t))


def test_model_at_a_shorter_prefix(pipeline):
    run, p = pipeline["run"], pipeline["run"].width
    kk = run.n_steps - 4
    cont = continue_prefix(run, kk, 1e-5).cont
    t_n = assemble_tn(run, kk, cont)
    assert t_n.n_blocks == kk + len(cont.q_panels)
    assert t_n.dim == kk * p + sum(cont.widths)
    assert all(np.array_equal(x, y) for x, y in zip(t_n.alphas, run.t.alphas[:kk]))
    assert np.array_equal(t_n.betas[kk - 1], cont.betas[0])
    basis = np.hstack([run.basis[:, : kk * p]] + cont.q_panels)
    assert theorem1_certificate(t_n, basis, run.a, cont.epsilon2).holds
    # the continuation appended after block K instead of block k
    wrong = BlockTridiagonal(run.t.alphas + cont.alphas, run.t.betas + cont.betas)
    with pytest.raises(ShapeMismatch, match="dimension %d" % wrong.dim):
        theorem1_certificate(wrong, basis, run.a, cont.epsilon2)


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
    t_n = assemble_tn(run, 1, pc.cont)
    t_n.check_structure()
    assert len(pc.report.delta_norms) == len(pc.cont.h_panels)
    assert t_n.dim == 2 + sum(pc.cont.widths)


def _start(n, l1, rho, seed, p, kron):
    """A strakos operator with a Gaussian start block drawn from the same
    seed, or the Kronecker lift of the spectrum with its own start."""
    spec = SpectrumSpec(n, l1, 100.0, rho)
    if kron:
        return kron_perturbed_problem(spec, p, 1e-12, seed)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), seed)
    return a, np.random.default_rng(seed).standard_normal((n, p))


def _compare_prefixes(run, mu):
    """Check `prefix_terms` against `continue_prefix` at every prefix of
    the run; returns how often each outcome was met, by name."""
    seen = {}
    for kk in range(1, run.n_steps + 1):
        try:
            sel, terms = prefix_terms(run, kk, mu)
        except (EmptySelection, NearDependentRitzVectors) as exc:
            with pytest.raises(type(exc)):
                continue_prefix(run, kk, mu)
            outcome = type(exc).__name__
        else:
            try:
                full = continue_prefix(run, kk, mu)
            except CapReached:
                outcome = "CapReached"
            else:
                report = full.report
                assert terms == (report.term21a, report.term21b, report.term22)
                assert np.array_equal(sel.indices, full.selection.indices)
                assert sel.rho_k == full.selection.rho_k
                outcome = "equal"
        seen[outcome] = seen.get(outcome, 0) + 1
    return seen


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(12, 60),
    l1=st.floats(1e-3, 1.0),
    rho=st.floats(0.5, 0.99),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1, 2, 3]),
    k_max=st.integers(1, 60),
    mu=st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e),
    kron=st.just(False),
    drawn=st.just(True),
)
# two fixed problems, which close at every prefix; at mu = 1e-2 some of
# their prefixes have nothing to select
@example(n=48, l1=0.1, rho=0.8, seed=1, p=2, k_max=24, mu=1e-5, kron=False, drawn=False)
@example(n=48, l1=0.1, rho=0.8, seed=1, p=2, k_max=24, mu=1e-2, kron=False, drawn=False)
@example(n=48, l1=0.1, rho=0.8, seed=5, p=2, k_max=24, mu=1e-5, kron=True, drawn=False)
@example(n=48, l1=0.1, rho=0.8, seed=5, p=2, k_max=24, mu=1e-2, kron=True, drawn=False)
def test_prefix_terms_equal_full_continuation(n, l1, rho, seed, p, k_max, mu, kron, drawn):
    # the prefix scan skips continuation past step 1 on the strength of this
    a, v = _start(n, l1, rho, seed, p, kron)
    run = run_block_lanczos(a, v, k_max=min(k_max, a.shape[0] // p))
    seen = _compare_prefixes(run, mu)
    if not drawn:
        assert "CapReached" not in seen
        assert ("EmptySelection" in seen) == (mu == 1e-2)
    # A drawn problem may fail to close past step 1, which prefix_terms
    # never takes: the absolute svd_tol cut sits at the roundoff level of
    # small problems (test_small_problem_closes_past_step_one).


@pytest.mark.xfail(raises=CapReached, strict=True, reason=(
    "known fault: the absolute svd_tol = 1e-12 cut sits at the roundoff level of panels "
    "when norm(A) = 100, so the continuation keeps roundoff-level panels until it would "
    "pass n columns"))
def test_small_problem_closes_past_step_one():
    # a draw of test_prefix_terms_equal_full_continuation: prefix_terms
    # reports terms at k = 7, continue_prefix cannot close there
    a, v = _start(43, 0.5994155762046618, 0.8404979825391405, 1761, 3, False)
    run = run_block_lanczos(a, v, k_max=14)
    mu = 0.009999769744141627
    _, terms = prefix_terms(run, 7, mu)
    report = continue_prefix(run, 7, mu).report
    assert terms == (report.term21a, report.term21b, report.term22)


@pytest.mark.parametrize("n, l1, rho, seed, p, k_max, k, mu", [
    (49, 0.11834799145624839, 0.5927018794989156, 767215, 3, 16, 12, 2.537379394400972e-08),
    (55, 0.0023095860232411163, 0.5392194152793308, 532370, 2, 21, 20, 1.2794101960079822e-08),
])
def test_block_term_above_ten_mu_while_the_model_holds(n, l1, rho, seed, p, k_max, k, mu):
    # the worst p = 3 and p = 2 cases of a random search: term21b breaks
    # the 10 mu norm(A) level, yet the model closes and is certified
    a, _ = spectrum_to_matrix(strakos_spectrum(SpectrumSpec(n, l1, 100.0, rho)), seed)
    run = run_block_lanczos(a, np.random.default_rng(seed + 1).standard_normal((n, p)), k_max)
    pc = continue_prefix(run, k, mu)
    assert pc.report.term21b / (mu * run.a_norm) > 10
    basis = np.hstack([run.basis[:, : k * p]] + pc.cont.q_panels)
    cert = theorem1_certificate(assemble_tn(run, k, pc.cont), basis, run.a, pc.cont.epsilon2)
    assert cert.holds
    assert interval_spread(cert.thetas, run.a.eigvals).max_width <= cert.bound


def test_first_step_is_step_one_of_the_run(pipeline):
    # step 1 replays step k of the run and removes what lies along w_k;
    # its coupling alone fixes the monitored terms
    run, k, sel, cont = pipeline["run"], pipeline["k"], pipeline["sel"], pipeline["cont"]
    w_k, v_k = sel.w_k, run.panels[k - 1]
    raw = run.a @ v_k - v_k @ run.t.alphas[k - 1] - run.panels[k - 2] @ run.t.betas[k - 2].T
    h, q1, beta_c = cont.h_panels[0], cont.q_panels[0], cont.betas[0]
    assert np.array_equal(raw - q1 @ beta_c, h)
    # full rank is kept here, so h is just the part of raw along w_k
    assert panel_norm(h - w_k @ (w_k.T @ raw)) < 1e-3 * panel_norm(h)
    terms = monitored_terms(run, k, sel, beta_c)
    report = pipeline["report"]
    assert terms == (report.term21a, report.term21b, report.term22)
    assert prefix_terms(run, k, 1e-5)[1] == terms


def test_prefix_terms_stop_after_step_one(pipeline, monkeypatch):
    # one truncated SVD per continuation step
    calls = []

    def counted(w, tol):
        calls.append(tol)
        return truncated_svd(w, tol)

    monkeypatch.setattr("blocklanczos.continuation.truncated_svd", counted)
    run, k = pipeline["run"], pipeline["k"]
    prefix_terms(run, k, 1e-5)
    assert len(calls) == 1
    calls.clear()
    cont = continue_prefix(run, k, 1e-5).cont
    assert len(calls) == cont.n_steps > 1


def test_monitored_terms_without_step_one_coupling(pipeline):
    term21a, term21b, term22 = monitored_terms(pipeline["run"], pipeline["k"], pipeline["sel"], None)
    assert (term21b, term22) == (0.0, 0.0)
    assert term21a == pipeline["report"].term21a
