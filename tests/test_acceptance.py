"""Acceptance battery.

Ten checks, each printing one verdict line (run with ``pytest -s`` to see
them). Every expected quantity is either computed in place from an
independent construction or checked against a tolerance band; nothing is
compared against stored outputs of the implementation itself.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from blocklanczos import (
    BlurSpec,
    blurred_problem,
    dr_bcg,
    hs_bcg,
    interlacing_check,
    conjecture_scan,
    continue_prefix,
    kron_perturbed_problem,
    read_matrix_market,
    ritz_analysis,
    run_block_lanczos,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
    sym_eig,
)
from conftest import band_blocks, block_columns

EPS = float(np.finfo(float).eps)
DATA = os.path.join(os.path.dirname(__file__), "data")
BCSSTK03 = os.path.join(DATA, "bcsstk03.mtx")


def _report(num, name, ok, detail=""):
    print("criterion %2d  %-46s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail))


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_exact_mode_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    worst_orth = 0.0
    worst_eig = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        n_blocks = int(rng.integers(2, 40 // p + 1))
        n = n_blocks * p
        eigs = np.sort(rng.uniform(0.5, 5.0, n))
        a, _ = spectrum_to_matrix(eigs, rng)
        v = rng.standard_normal((n, p))
        run = run_block_lanczos(a, v, k_max=n_blocks, mode="simulated_exact")
        basis = np.hstack(run.panels[: run.n_steps])
        worst_orth = max(
            worst_orth,
            float(np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))),
        )
        thetas = np.linalg.eigvalsh(run.t)
        miss = max(float(np.min(np.abs(eigs - t))) for t in thetas) / run.a.norm
        worst_eig = max(worst_eig, miss)
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-11 and worst_eig <= 1e-10 and elapsed < 10.0
    _report(1, "exact-mode orthonormality and spectrum", ok,
            "orth %.2e eig %.2e %.2fs" % (worst_orth, worst_eig, elapsed))
    assert worst_orth <= 1e-11
    assert worst_eig <= 1e-10
    assert elapsed < 10.0


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_kron_lift_reproduces_scalar_blocks():
    spec = strakos48(0.1, 100.0)
    p = 2
    # replay the generator's private draws to get the scalar tridiagonal
    rng = np.random.default_rng(5)
    b_mat, _ = spectrum_to_matrix(strakos_spectrum(spec), rng)
    y = rng.standard_normal((48, 1))
    inner = run_block_lanczos(b_mat, y, k_max=48, mode="simulated_exact")
    s = inner.n_steps

    a, v = kron_perturbed_problem(spec, p, 0.0, 5)
    outer = run_block_lanczos(a, v, k_max=s, mode="simulated_exact")
    worst = 0.0
    for k in range(1, outer.n_steps + 1):
        got = outer.t[: k * p, : k * p]
        want = np.kron(inner.t[:k, :k], np.eye(p))
        worst = max(worst, float(np.max(np.abs(got - want))) / outer.a.norm)
    ok = outer.n_steps == s and worst <= 1e-10
    _report(2, "kron lift matches the scalar run blockwise", ok,
            "steps %d/%d entry gap %.2e" % (outer.n_steps, s, worst))
    assert outer.n_steps == s
    assert worst <= 1e-10


# -- criteria 3 and 4 --------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _graded_continuations():
    out = []
    for l1, ln in ((0.001, 1.0), (0.1, 100.0)):
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(l1, ln)), rng)
            v = rng.standard_normal((48, 2))
            run = run_block_lanczos(a, v, k_max=12)
            out.append(continue_prefix(run, run.n_steps, 1e-5))
    return out


def test_criterion_03_continuation_basis_and_couplings():
    worst_orth = 0.0
    worst_beta = 0.0
    for pc in _graded_continuations():
        cont, a, k = pc.cont, pc.run.a.array, pc.k
        q = block_columns(cont.basis, cont.block_sizes)[k:]
        betas = band_blocks(cont.tn, cont.block_sizes)[1][k - 1 :]
        guard = np.hstack([pc.w_k] + q)
        worst_orth = max(
            worst_orth,
            float(np.linalg.norm(guard.T @ guard - np.eye(guard.shape[1]))),
        )
        for j in range(2, len(betas)):
            want = q[j].T @ a @ q[j - 1]
            gap = float(np.linalg.norm(betas[j] - want)) / pc.run.a.norm
            worst_beta = max(worst_beta, gap)
    ok = worst_orth <= 1e-11 and worst_beta <= 1e-10
    _report(3, "continuation orthonormality and couplings", ok,
            "orth %.2e beta %.2e" % (worst_orth, worst_beta))
    assert worst_orth <= 1e-11
    assert worst_beta <= 1e-10


def test_criterion_04_perturbation_closed_forms():
    worst = 0.0
    for pc in _graded_continuations():
        worst = max(worst, max(pc.delta_norms) / pc.run.a.norm)
    ok = worst <= 1e-10
    _report(4, "recorded perturbations match closed forms", ok,
            "remainder %.2e" % worst)
    assert worst <= 1e-10


# -- criterion 5 -------------------------------------------------------------

def test_criterion_05_monitored_terms_bounded():
    mu = 1e-5
    details = []
    ok = True
    for l1, ln in ((0.001, 1.0), (0.1, 100.0)):
        a, v = kron_perturbed_problem(strakos48(l1, ln), 2, 1e-12, 5)
        run = run_block_lanczos(a, v, k_max=24)
        limit = 10.0 * mu * run.a.norm
        worst = 0.0
        for kk in range(1, run.n_steps + 1):
            pc = continue_prefix(run, kk, mu)
            pc.cont  # every prefix's model must close, not only its terms exist
            worst = max(worst, *pc.terms)
        ok = ok and worst <= limit
        details.append("(%g,%g) %.2e<=%.0e" % (l1, ln, worst, limit))
    _report(5, "monitored terms stay near mu*norm(A)", ok, " ".join(details))
    assert ok


# -- criteria 6 and 7 --------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _flagship_model(l1, ln, mu_text):
    t0 = time.perf_counter()
    a, v = kron_perturbed_problem(strakos48(l1, ln), 2, 1e-12, 5)
    run = run_block_lanczos(a, v, k_max=24)
    k = run.n_steps
    n = a.shape[0]
    mu = math.sqrt(k * n * 2 * EPS) if mu_text == "auto" else float(mu_text)
    pc = continue_prefix(run, k, mu)
    pc.certificate.spread  # the model, its certificate and its spread, inside the timing
    return pc, time.perf_counter() - t0


def test_criterion_06_model_spread():
    cases = (
        (0.001, 1.0, "auto", 1e-10),
        (0.1, 100.0, "1e-5", 1e-7),
    )
    ok = True
    details = []
    for l1, ln, mu_text, tol in cases:
        pc, elapsed = _flagship_model(l1, ln, mu_text)
        rel = pc.certificate.spread.max_width / pc.run.a.norm
        ok = ok and rel <= tol and elapsed < 60.0
        details.append("(%g,%g) width %.2e<=%.0e dim %d %.1fs"
                       % (l1, ln, rel, tol, pc.certificate.spread.dim, elapsed))
    _report(6, "model eigenvalues hug the true spectrum", ok, " ".join(details))
    for l1, ln, mu_text, tol in cases:
        pc, elapsed = _flagship_model(l1, ln, mu_text)
        assert pc.certificate.spread.max_width / pc.run.a.norm <= tol
        assert elapsed < 60.0


def test_criterion_07_certificate():
    ok = True
    details = []
    for l1, ln, mu_text in ((0.001, 1.0, "auto"), (0.1, 100.0, "1e-5")):
        pc, _ = _flagship_model(l1, ln, mu_text)
        cert, eps2 = pc.certificate, pc.cont.epsilon2
        ok = ok and cert.epsilon1 <= eps2 and cert.holds
        ok = ok and pc.certificate.spread.max_width <= cert.bound
        details.append("(%g,%g) eps1 %.1e eps2 %.1e holds %s"
                       % (l1, ln, cert.epsilon1, eps2, cert.holds))
    _report(7, "certificate hypothesis and radius", ok, " ".join(details))
    for l1, ln, mu_text in ((0.001, 1.0, "auto"), (0.1, 100.0, "1e-5")):
        pc, _ = _flagship_model(l1, ln, mu_text)
        assert pc.certificate.epsilon1 <= pc.cont.epsilon2
        assert pc.certificate.holds
        assert pc.certificate.spread.max_width <= pc.certificate.bound


# -- criterion 8 -------------------------------------------------------------

def _delay_battery(a, eigs, y, b, maxit, blur_m):
    """Iteration counts to trace error 1e-12: FP HS, FP DR, and exact DR
    on two blur widths tied to the FP counterparts."""
    hs = hs_bcg(a, b, maxit=maxit)
    dr = dr_bcg(a, b, maxit=maxit)
    it_hs = hs.first_below(1e-12)
    it_dr = dr.first_below(1e-12)
    a_norm = float(np.max(np.abs(eigs)))
    blurred = {}
    for tag, mult in (("half_eps", 0.5), ("hundred_eps", 100.0)):
        delta = mult * EPS * a_norm
        a_hat, b_hat = blurred_problem(eigs, y, b, BlurSpec(blur_m, delta))
        hist = dr_bcg(a_hat, b_hat, maxit=maxit, exact_mode=True)
        blurred[tag] = hist.first_below(1e-12)
    return it_hs, it_dr, blurred


def _check_delay(num, label, it_hs, it_dr, blurred):
    ok_order = it_hs is not None and it_dr is not None and it_dr < it_hs
    ok_b = blurred["half_eps"] is not None and ok_order
    ok_c = blurred["hundred_eps"] is not None and ok_order
    rel_b = rel_c = float("nan")
    if ok_b:
        rel_b = abs(blurred["half_eps"] - it_dr) / it_dr
        ok_b = rel_b <= 0.15
    if ok_c:
        rel_c = abs(blurred["hundred_eps"] - it_hs) / it_hs
        ok_c = rel_c <= 0.20
    ok = ok_order and ok_b and ok_c
    _report(num, label, ok,
            "hs %s dr %s blur %s/%s rel %.3f/%.3f"
            % (it_hs, it_dr, blurred["half_eps"], blurred["hundred_eps"], rel_b, rel_c))
    assert ok_order
    assert ok_b
    assert ok_c


def test_criterion_08_solver_delay_vs_blur():
    # stand-in operator: one isolated slow eigenvalue below a log-uniform
    # bulk, which reproduces the differential HS/DR endgame delay at a
    # conditioning the 1e-12 target can still be reached under
    spectrum = np.sort(np.concatenate(([8e-3], np.logspace(0.0, 2.0, 111))))
    a, u = spectrum_to_matrix(spectrum, 7)
    b = np.random.default_rng(42).standard_normal((112, 2))
    it_hs, it_dr, blurred = _delay_battery(a, spectrum, u, b, 650, 11)
    _check_delay(8, "solver delay matches blurred exact runs", it_hs, it_dr, blurred)


@pytest.mark.skipif(not os.path.exists(BCSSTK03),
                    reason="tests/data/bcsstk03.mtx not present")
def test_criterion_08_reference_matrix():
    a = read_matrix_market(BCSSTK03)
    n = a.shape[0]
    eigs, y = sym_eig(a)
    b = np.random.default_rng(42).standard_normal((n, 2))
    it_hs, it_dr, blurred = _delay_battery(a, eigs, y, b, 20 * n, 11)
    _check_delay(8, "solver delay on the reference matrix", it_hs, it_dr, blurred)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_local_recurrence_bands():
    band = 10.0 * 48 * 2 * EPS
    worst_dv = 0.0
    worst_lo = 0.0
    worst_nm = 0.0
    for l1, ln in ((0.001, 1.0), (0.1, 100.0)):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            a, _ = spectrum_to_matrix(strakos_spectrum(strakos48(l1, ln)), rng)
            v = rng.standard_normal((48, 2))
            run = run_block_lanczos(a, v, k_max=24)
            diag = run.diagnostics
            worst_dv = max(worst_dv, *(diag.delta_v_norm / run.a.norm))
            worst_lo = max(worst_lo, *(diag.local_orth / run.a.norm))
            worst_nm = max(worst_nm, *diag.normality)
    ok = worst_dv <= band and worst_lo <= band and worst_nm <= band
    _report(9, "local recurrence quantities stay in band", ok,
            "dv %.2e lo %.2e nm %.2e band %.2e" % (worst_dv, worst_lo, worst_nm, band))
    assert worst_dv <= band
    assert worst_lo <= band
    assert worst_nm <= band


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_interlacing_and_containment():
    rng = np.random.default_rng(77)
    eq6_bad = 0
    conj_bad = 0
    checks = 0
    for case in range(20):
        n_blocks = 8 + case % 5
        p = 1 + case % 3
        n = n_blocks * p
        eigs = np.sort(rng.uniform(0.1, 3.0, n))
        a, _ = spectrum_to_matrix(eigs, rng)
        v = rng.standard_normal((n, p))
        k_max = max(2, math.ceil(0.6 * n_blocks))
        run = run_block_lanczos(a, v, k_max=k_max, mode="simulated_exact")
        thetas = [ritz_analysis(run, kk).thetas for kk in range(1, run.n_steps + 1)]
        for kk in range(1, len(thetas)):
            eq6_bad += len(interlacing_check(thetas[kk - 1], thetas[kk], p))
        scan = conjecture_scan(thetas, p)
        conj_bad += len(scan.violations)
        checks += scan.checks
    ok = eq6_bad == 0 and conj_bad == 0
    _report(10, "strict interlacing and interval containment", ok,
            "eq6 violations %d containment violations %d (%d checks)"
            % (eq6_bad, conj_bad, checks))
    assert eq6_bad == 0
    assert conj_bad == 0
