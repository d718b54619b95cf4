"""Selection, protected-basis construction, continuation, assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklanczos import (
    AssumptionUnsatisfiable,
    CapReached,
    EmptySelection,
    NearDependentRitzVectors,
    NonFiniteOperator,
    ShapeMismatch,
    SpectrumSpec,
    build_wk,
    continuation_run,
    continue_prefix,
    kron_perturbed_problem,
    panel_norm,
    ritz_analysis,
    run_block_lanczos,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
    theorem1_certificate,
    truncated_svd,
)
from blocklanczos.continuation import _continuation_steps
from blocklanczos.lanczos import MODES
from conftest import assert_band_layout, band_blocks, block_columns, run_blocks


@pytest.fixture(scope="module")
def pipeline():
    """One finite-precision run carried through the whole continuation."""
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 1)
    v = np.random.default_rng(1).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=12)
    k = run.n_steps
    pc = continue_prefix(run, k, 1e-5)
    fp = run.diagnostics.delta_v_norm[:k]
    return dict(
        a=a, run=run, k=k, ritz=ritz_analysis(run, k), pc=pc, w_k=pc.w_k, fp=fp,
        cont=pc.cont,
    )


def test_selection_threshold_is_strict(pipeline):
    ritz, pc, run = pipeline["ritz"], pipeline["pc"], pipeline["run"]
    assert pc.threshold == 1e-5 * run.a.norm
    assert np.all(ritz.deltas[pc.indices] > pc.threshold)
    mask = np.ones(ritz.deltas.size, bool)
    mask[pc.indices] = False
    assert np.all(ritz.deltas[mask] <= pc.threshold)
    assert pc.m == pc.indices.size
    assert np.array_equal(pc.s_m, ritz.s[:, pc.indices])


def test_selection_rejects_bad_mu(pipeline):
    run, k = pipeline["run"], pipeline["k"]
    with pytest.raises(ValueError, match="mu must be > 0"):
        continue_prefix(run, k, 0.0)
    with pytest.raises(ValueError, match="mu must be finite"):
        continue_prefix(run, k, float("inf"))
    with pytest.raises(EmptySelection):
        continue_prefix(run, k, 1e6)


def test_build_wk_factors(pipeline):
    run, k, ritz, pc = pipeline["run"], pipeline["k"], pipeline["ritz"], pipeline["pc"]
    z_sel = (run.basis[:, : k * run.width] @ ritz.s)[:, pc.indices]
    w_k, r_k, rho = build_wk(z_sel)
    assert np.linalg.norm(w_k.T @ w_k - np.eye(pc.m)) < 1e-13
    assert np.linalg.norm(w_k @ r_k - z_sel) < 1e-12
    assert np.isclose(rho, 1.0 / np.linalg.svd(r_k, compute_uv=False)[-1], rtol=1e-12)
    # the selection is this factorization of these columns, bit for bit
    assert np.array_equal(w_k, pc.w_k) and np.array_equal(r_k, pc.r_k)
    assert rho == pc.rho_k


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
    w_k, cont, lo = pipeline["w_k"], pipeline["cont"], pipeline["k"] * pipeline["run"].width
    guard = np.hstack([w_k, cont.basis[:, lo:]])
    defect = np.linalg.norm(guard.T @ guard - np.eye(guard.shape[1]))
    assert defect < 1e-11


def test_continuation_blocks_satisfy_the_recurrence(pipeline):
    a, cont, run, k = pipeline["a"], pipeline["cont"], pipeline["run"], pipeline["k"]
    # interior couplings must match the Rayleigh quotients of the panels
    alphas, betas = band_blocks(cont.tn, cont.block_sizes)
    q = block_columns(cont.basis, cont.block_sizes)[k:]
    for j in range(2, len(q)):
        want = q[j].T @ a @ q[j - 1]
        got = betas[k + j - 1]
        assert np.linalg.norm(got - want) < 1e-10 * run.a.norm
    for j in range(1, len(q)):
        want = q[j].T @ a @ q[j]
        assert np.linalg.norm(alphas[k + j] - want) < 1e-10 * run.a.norm


def test_continuation_terminates_with_zero_rank(pipeline):
    cont, k = pipeline["cont"], pipeline["k"]
    # one h entry per step; the closing step keeps no panel
    assert cont.n_steps == len(cont.block_sizes) - k + 1
    assert all(w > 0 for w in cont.block_sizes[k:])
    assert cont.basis.shape[1] == sum(cont.block_sizes) == cont.tn.shape[0]


def test_epsilon2_formula(pipeline):
    cont, fp, run = pipeline["cont"], pipeline["fp"], pipeline["run"]
    want = max(list(fp) + list(cont.h_norms)) / run.a.norm
    assert cont.epsilon2 == want
    assert 0.0 < cont.epsilon2 < 1e-4


def test_continuation_cap_and_tol_validation(pipeline):
    # the column cap: test_continuation_basis_cannot_outgrow_the_dimension
    run, k, w_k = pipeline["run"], pipeline["k"], pipeline["w_k"]
    for bad_k in (0, run.n_steps + 1, 2.0):
        with pytest.raises(ValueError, match="k must be"):
            continuation_run(run, bad_k, w_k)


@pytest.mark.parametrize("w_k, error", [
    (np.ones((10, 18)), ShapeMismatch),  # rows other than n
    (np.ones(48), ShapeMismatch),  # not 2-d
    (np.ones((48, 49)), ShapeMismatch),  # more columns than n
    (np.full((48, 2), np.nan), NonFiniteOperator),
])
def test_continuation_rejects_a_malformed_protected_basis(pipeline, w_k, error):
    with pytest.raises(error):
        continuation_run(pipeline["run"], pipeline["k"], w_k)


def test_continuation_basis_cannot_outgrow_the_dimension(pipeline, monkeypatch):
    # a cut that keeps every column never closes; the guard stops the
    # basis before it passes n columns, and only the read of the
    # continuation fails: the terms need step 1 alone
    monkeypatch.setattr("blocklanczos.continuation.truncated_svd",
                        lambda w, tol: truncated_svd(w, 0.0))
    pc = continue_prefix(pipeline["run"], pipeline["k"], 1e-5)
    assert pc.terms == pipeline["pc"].terms
    with pytest.raises(CapReached, match="would reach 50 columns in dimension n = 48"):
        pc.cont


def test_continuation_refuses_the_zero_operator():
    # a cut relative to norm(A) = 0 has no scale: refused before step 1
    v = np.random.default_rng(0).standard_normal((10, 2))
    run = run_block_lanczos(np.zeros((10, 10)), v, k_max=4)
    with pytest.raises(AssumptionUnsatisfiable, match="norm"):
        continuation_run(run, 1, run.basis[:, :1].copy())
    with pytest.raises(EmptySelection):
        continue_prefix(run, 1, 1e-5)


def test_continuation_model_structure(pipeline):
    # T_N holds the corner of run.t, then each step's blocks as they were
    # yielded, bit for bit; the basis holds each step's panel
    run, k, cont, w_k = pipeline["run"], pipeline["k"], pipeline["cont"], pipeline["w_k"]
    p, t_n, sizes = run.width, cont.tn, cont.block_sizes
    assert t_n.shape == (sum(sizes),) * 2 and sizes[:k] == [p] * k
    assert np.array_equal(t_n[: k * p, : k * p], run.t[: k * p, : k * p])
    assert not np.shares_memory(t_n, run.t)
    steps = list(_continuation_steps(run, k, w_k))
    alphas, betas = band_blocks(t_n, sizes)
    assert len(alphas) == k + len(steps) - 1
    assert all(np.array_equal(x, s[0]) for x, s in zip(alphas[k:], steps[1:]))
    assert all(np.array_equal(x, s[2]) for x, s in zip(betas[k - 1 :], steps))
    panels = block_columns(cont.basis, sizes)
    assert all(np.array_equal(x, s[1]) for x, s in zip(panels[k:], steps))
    assert_band_layout(t_n, sizes)


def test_rank_zero_first_step_keeps_the_run_model():
    # the start block lies in an invariant subspace of dimension 6: the
    # run terminates at K = 3, every Ritz pair is kept, and step 1 has
    # nothing left to keep
    eigs = np.sort(np.random.default_rng(20).uniform(0.5, 5, 20))
    a, y = spectrum_to_matrix(eigs, 20)
    v = y[:, :6] @ np.random.default_rng(1).standard_normal((6, 2))
    run = run_block_lanczos(a, v, k_max=10)
    assert run.n_steps == 3 and run.terminated
    pc = continue_prefix(run, 3, 1e-14)
    cont = pc.cont
    assert pc.m == 6 and cont.n_steps == 1
    assert cont.block_sizes == [2, 2, 2]
    assert cont.tn.tobytes() == run.t.tobytes() and cont.tn.shape == run.t.shape
    assert np.array_equal(cont.basis, run.basis[:, :6])
    assert pc.terms == (0.0, 0.0, 0.0)
    assert len(pc.delta_norms) == 1
    assert pc.certificate.holds


def test_model_at_a_shorter_prefix(pipeline):
    run, p = pipeline["run"], pipeline["run"].width
    kk, big_k = run.n_steps - 4, run.n_steps
    pc = continue_prefix(run, kk, 1e-5)
    cont = pc.cont
    t_n, sizes = cont.tn, cont.block_sizes
    assert sizes[:kk] == [p] * kk and len(sizes) > kk
    assert t_n.shape[0] == sum(sizes) == cont.basis.shape[1]
    assert np.array_equal(t_n[: kk * p, : kk * p], run.t[: kk * p, : kk * p])
    beta_c = next(_continuation_steps(run, kk, pc.w_k))[2]
    assert np.array_equal(band_blocks(t_n, sizes)[1][kk - 1], beta_c)
    assert np.array_equal(cont.basis[:, : kk * p], run.basis[:, : kk * p])
    assert pc.certificate.holds
    # the continuation appended after block K instead of block k
    wrong = np.zeros((big_k * p + t_n.shape[0] - kk * p,) * 2)
    wrong[: big_k * p, : big_k * p] = run.t
    wrong[big_k * p :, big_k * p :] = t_n[kk * p :, kk * p :]
    with pytest.raises(ShapeMismatch, match="dimension %d" % wrong.shape[0]):
        theorem1_certificate(wrong, big_k + len(sizes) - kk, cont.basis, run.a, cont.epsilon2)


def test_decomposition_reports_small_remainders(pipeline):
    pc, run = pipeline["pc"], pipeline["run"]
    assert all(term >= 0 for term in pc.terms)
    assert len(pc.delta_norms) == len(pc.cont.h_panels)
    # closed forms explain the recorded panels down to roundoff
    assert max(pc.delta_norms) < 1e-10 * run.a.norm


def test_first_step_continuation():
    # k = 1 has no trailing term: v_prev and beta_k are absent
    a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(0.1, 100.0)), 2)
    v = np.random.default_rng(2).standard_normal((48, 2))
    run = run_block_lanczos(a, v, k_max=1)
    pc = continue_prefix(run, 1, 1e-5)
    cont = pc.cont
    assert_band_layout(cont.tn, cont.block_sizes)
    assert len(pc.delta_norms) == len(cont.h_panels)
    assert cont.tn.shape == (sum(cont.block_sizes),) * 2 and cont.block_sizes[0] == 2


def _start(n, l1, rho, seed, p, kron):
    """A strakos operator with a Gaussian start block drawn from the same
    seed, or the Kronecker lift of the spectrum with its own start."""
    spec = SpectrumSpec(n, l1, 100.0, rho)
    if kron:
        return kron_perturbed_problem(spec, p, 1e-12, seed)
    a, _ = spectrum_to_matrix(strakos_spectrum(spec), seed)
    return a, np.random.default_rng(seed).standard_normal((n, p))


def _step_one_coupling(run, kk, pc):
    """The coupling beta_{k+1} continuation step 1 keeps at prefix kk, the
    only part of the continuation the monitored terms read."""
    return next(_continuation_steps(run, kk, pc.w_k))[2]


def _assert_step_one_coupling_is_the_models(run, kk, pc, cont):
    # the full continuation's beta_{k+1} block of T_N, empty when step 1
    # keeps rank zero
    edges = np.cumsum([0] + cont.block_sizes + [0])
    block = cont.tn[edges[kk] : edges[kk + 1], edges[kk - 1] : edges[kk]]
    beta_c = _step_one_coupling(run, kk, pc)
    assert beta_c.shape == block.shape and beta_c.tobytes() == block.tobytes()


def _compare_prefixes(run, mu):
    """Check at every prefix of the run that the coupling continuation
    step 1 keeps, which alone fixes the record's terms, is the one of its
    continuation to closure, bit for bit; returns how often each outcome
    was met, by name."""
    seen = {}
    for kk in range(1, run.n_steps + 1):
        try:
            pc = continue_prefix(run, kk, mu)
        except (EmptySelection, NearDependentRitzVectors) as exc:
            outcome = type(exc).__name__
        else:
            pc.terms  # made from step 1 alone, before the continuation
            try:
                cont = pc.cont
            except CapReached:
                outcome = "CapReached"
            else:
                _assert_step_one_coupling_is_the_models(run, kk, pc, cont)
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
    assert "CapReached" not in seen
    if not drawn:
        assert ("EmptySelection" in seen) == (mu == 1e-2)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(12, 60),
    l1=st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e),
    rho=st.floats(0.5, 0.99),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1, 2, 3]),
    k_max=st.integers(2, 60),
    mu=st.floats(-8.0, -2.0).map(lambda e: 10.0 ** e),
)
def test_model_record_is_consistent_at_every_closing_prefix(n, l1, rho, seed, p, k_max, mu):
    # a read-only T_N and basis that start with the run's, bit for bit, one
    # column of the basis and one spread entry per row of T_N, and a
    # certificate that holds bounds the spread it certifies
    a, v = _start(n, l1, rho, seed, p, False)
    run = run_block_lanczos(a, v, k_max=min(k_max, n // p))
    for kk in range(1, run.n_steps + 1):
        try:
            pc = continue_prefix(run, kk, mu)
        except (EmptySelection, NearDependentRitzVectors):
            continue
        cont, lo = pc.cont, kk * p
        tn, basis, sizes = cont.tn, cont.basis, cont.block_sizes
        assert not tn.flags.writeable and not basis.flags.writeable
        assert np.array_equal(tn[:lo, :lo], run.t[:lo, :lo])
        assert np.array_equal(basis[:, :lo], run.basis[:, :lo])
        assert_band_layout(tn, sizes)
        assert basis.shape[1] == sum(sizes) == tn.shape[0] == pc.spread.dim
        assert pc.spread.max_width <= pc.certificate.bound or not pc.certificate.holds


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(4, 60),
    p=st.sampled_from([1, 2, 3]),
    k_frac=st.floats(0.0, 1.0),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**16),
)
def test_one_array_per_block_tridiagonal(n, p, k_frac, mode, seed):
    # run.t is the read-only band of T_K; every closing prefix's T_N starts
    # with its corner, bit for bit, and has one row per block column
    a, v = _start(n, 0.01, 0.9, seed, p, False)
    run = run_block_lanczos(a, v, k_max=max(1, int(k_frac * (n // p))), mode=mode)
    big_k = run.n_steps
    assert run.t.shape == (big_k * p, big_k * p) and not run.t.flags.writeable
    assert_band_layout(run.t, [p] * big_k)
    for beta in run_blocks(run)[1]:
        assert np.array_equal(beta, np.triu(beta)) and np.all(np.diag(beta) >= 0.0)
    for kk in range(1, big_k + 1):
        try:
            cont = continue_prefix(run, kk, 1e-6).cont
        except (EmptySelection, NearDependentRitzVectors, CapReached):
            continue
        tn = cont.tn
        assert np.array_equal(tn[: kk * p, : kk * p], run.t[: kk * p, : kk * p])
        assert sum(cont.block_sizes) == tn.shape[0] == tn.shape[1] == cont.basis.shape[1]
        assert_band_layout(tn, cont.block_sizes)


def test_record_builds_its_model_once(pipeline):
    pc = pipeline["pc"]
    assert pc.cont is pc.cont
    assert pc.certificate is pc.certificate
    assert pc.spread is pc.spread


def test_small_problem_closes_past_step_one():
    # a draw of test_prefix_terms_equal_full_continuation that an absolute
    # cut of 1e-12 at norm(A) = 100 cannot close: roundoff-level panels
    # would be kept until the basis passed n = 43 columns
    a, v = _start(43, 0.5994155762046618, 0.8404979825391405, 1761, 3, False)
    run = run_block_lanczos(a, v, k_max=14)
    mu = 0.009999769744141627
    pc = continue_prefix(run, 7, mu)
    sizes = pc.cont.block_sizes
    _assert_step_one_coupling_is_the_models(run, 7, pc, pc.cont)
    assert sizes[7:] == [3] * 11 + [2, 1, 1, 1]
    assert pc.m + sum(sizes[7:]) <= 43
    assert 1.2e-2 < pc.cont.epsilon2 < 1.22e-2


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
    assert pc.terms[1] / (mu * run.a.norm) > 10
    assert pc.certificate.holds
    assert pc.spread.max_width <= pc.certificate.bound


def test_first_step_is_step_one_of_the_run(pipeline):
    # step 1 replays step k of the run and removes what lies along w_k;
    # its coupling alone fixes the monitored terms
    run, k, pc, cont = pipeline["run"], pipeline["k"], pipeline["pc"], pipeline["cont"]
    w_k, v_k = pc.w_k, run.panels[k - 1]
    alphas, betas = run_blocks(run)
    raw = run.a @ v_k - v_k @ alphas[k - 1] - run.panels[k - 2] @ betas[k - 2].T
    lo = k * run.width
    h, q1 = cont.h_panels[0], cont.basis[:, lo : lo + cont.block_sizes[k]]
    beta_c = band_blocks(cont.tn, cont.block_sizes)[1][k - 1]
    assert np.array_equal(raw - q1 @ beta_c, h)
    # full rank is kept here, so h is just the part of raw along w_k
    assert panel_norm(h - w_k @ (w_k.T @ raw)) < 1e-3 * panel_norm(h)
    _assert_step_one_coupling_is_the_models(run, k, pc, cont)


def test_record_makes_each_stage_on_first_read(pipeline, monkeypatch):
    # one truncated SVD per continuation step: none to select, step 1 for
    # the terms, every step again for the continuation, and nothing twice
    calls = []

    def counted(w, tol):
        calls.append(tol)
        return truncated_svd(w, tol)

    monkeypatch.setattr("blocklanczos.continuation.truncated_svd", counted)
    run, k = pipeline["run"], pipeline["k"]
    pc = continue_prefix(run, k, 1e-5)
    assert len(calls) == 0
    assert pc.terms is pc.terms and len(calls) == 1
    cont = pc.cont
    assert cont is pc.cont and len(calls) == 1 + cont.n_steps and cont.n_steps > 1
    pc.delta_norms, pc.certificate, pc.spread
    assert len(calls) == 1 + cont.n_steps


def test_monitored_terms_without_step_one_coupling(pipeline, monkeypatch):
    # a cut that keeps nothing leaves step 1 without a coupling: the two
    # terms built on it are zero, and term21a does not read it
    monkeypatch.setattr("blocklanczos.continuation.truncated_svd",
                        lambda w, tol: truncated_svd(w, np.inf))
    pc = continue_prefix(pipeline["run"], pipeline["k"], 1e-5)
    assert _step_one_coupling(pipeline["run"], pipeline["k"], pc).size == 0
    term21a, term21b, term22 = pc.terms
    assert (term21b, term22) == (0.0, 0.0)
    assert term21a == pipeline["pc"].terms[0]
