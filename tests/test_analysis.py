"""Interlacing, containment scan, clusters, spread, certificate."""

import numpy as np
import pytest

from blocklanczos import (
    AssumptionUnsatisfiable,
    NonFiniteOperator,
    ShapeMismatch,
    classify_clusters,
    conjecture_scan,
    interlacing_check,
    interval_spread,
    ritz_analysis,
    run_block_lanczos,
    theorem1_certificate,
)
from conftest import rand_spd


def test_interlacing_clean_case():
    assert interlacing_check([2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0], 1) == []
    # K == p leaves only the outer pair of inequalities
    assert interlacing_check([1.0, 5.0], [0.0, 2.0, 3.0, 6.0], 2) == []


def test_interlacing_each_violation_kind():
    bad = interlacing_check([1.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0], 1)
    assert bad == [("bottom", 1, 1.0, 1.0)]
    bad = interlacing_check([2.0, 4.0, 6.0], [1.0, 2.0, 5.0, 7.0], 1)
    assert bad == [("lower", 1, 2.0, 2.0)]
    bad = interlacing_check([2.0, 4.0, 6.0], [1.0, 4.0, 5.0, 7.0], 1)
    assert bad == [("upper", 1, 4.0, 4.0)]
    bad = interlacing_check([2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 6.0], 1)
    assert bad == [("top", 3, 6.0, 6.0)]


def test_interlacing_shape_guard():
    with pytest.raises(ShapeMismatch):
        interlacing_check([1.0, 2.0], [0.5, 1.5, 2.5], 2)


def test_interlacing_on_exact_ritz_values():
    a, _, rng = rand_spd(18, 51)
    run = run_block_lanczos(a, rng.standard_normal((18, 2)), k_max=6, mode="simulated_exact")
    for k in range(1, 6):
        t_lo = ritz_analysis(run, k).thetas
        t_hi = ritz_analysis(run, k + 1).thetas
        assert interlacing_check(t_lo, t_hi, 2) == []


def test_conjecture_scan_counts():
    seq = [
        np.array([1.0, 3.0]),
        np.array([0.5, 2.0, 4.0]),
        np.array([0.0, 1.5, 2.5, 5.0]),
    ]
    rep = conjecture_scan(seq, 1)
    assert rep.checks == 4 and rep.confirmations == 4
    assert rep.violations == [] and rep.percentage == 100.0
    # 1-based (k, i, j, lo, hi, contains), ordered by k, then i, then j
    assert rep.rows == [
        (1, 1, 2, 1.0, 3.0, True),
        (1, 1, 3, 1.0, 3.0, True),
        (2, 1, 3, 0.5, 2.0, True),
        (2, 2, 3, 2.0, 4.0, True),
    ]


def test_conjecture_scan_interval_is_open():
    # landing exactly on an endpoint does not count as inside
    rep = conjecture_scan([np.array([1.0, 3.0]), np.array([1.0, 3.0, 5.0])], 1)
    assert rep.checks == 1 and rep.confirmations == 0
    assert rep.violations == [(0, 1, 1)]
    assert rep.rows == [(1, 1, 2, 1.0, 3.0, False)]
    assert rep.percentage == 0.0


def test_conjecture_scan_degenerate():
    rep = conjecture_scan([np.array([1.0, 2.0])], 1)
    assert rep.checks == 0 and rep.percentage == 100.0


def test_clusters_kinds_and_member_indexing():
    thetas = np.array([3.0, 1.0, 1.0005])
    base_near = np.array([1.0002, 3.0])
    labels = classify_clusters(thetas, base_near, 1.0, psi=1e-3, eta=1e-6)
    assert [lab.kind for lab in labels] == ["proper", "separated"]
    assert labels[0].members == [1, 2]
    assert labels[1].members == [0]
    assert labels[0].theta_min == 1.0 and labels[0].theta_max == 1.0005
    # move the reference away: the pair has no eigenvalue to explain it
    labels = classify_clusters(thetas, np.array([5.0]), 1.0, psi=1e-3, eta=1e-6)
    assert [lab.kind for lab in labels] == ["improper", "separated"]


def test_clusters_partition_property():
    rng = np.random.default_rng(52)
    for _ in range(20):
        thetas = rng.uniform(0.0, 10.0, 15)
        labels = classify_clusters(thetas, rng.uniform(0, 10, 4), 10.0, psi=0.02, eta=0.001)
        seen = sorted(i for lab in labels for i in lab.members)
        assert seen == list(range(15))
        for lab in labels:
            if len(lab.members) > 1:
                assert lab.kind in ("proper", "improper")
            else:
                assert lab.kind == "separated"


def test_spread_assignment_and_ties():
    rep = interval_spread(
        np.array([-0.5, 0.2, 9.7, 5.0]), np.array([0.0, 10.0])
    )
    assert rep.counts.tolist() == [3, 1]
    # the midpoint ties to the lower reference value
    assert np.allclose(rep.widths, [5.0, 0.3], atol=1e-14)
    assert rep.max_width == 5.0 and rep.dim == 4


def test_spread_is_permutation_invariant():
    rng = np.random.default_rng(53)
    tn = rng.uniform(0, 10, 12)
    base = np.array([2.0, 7.0, 9.0])
    ref = interval_spread(tn, base)
    shuffled = interval_spread(rng.permutation(tn), base[::-1])
    assert np.array_equal(ref.widths, shuffled.widths)
    assert np.array_equal(ref.counts, shuffled.counts)
    assert np.array_equal(ref.base_eigs, shuffled.base_eigs)


def full_depth_run(n=12, p=2, seed=54):
    a, _, rng = rand_spd(n, seed)
    return a, run_block_lanczos(a, rng.standard_normal((n, p)), k_max=n // p,
                               mode="simulated_exact")


def test_certificate_holds_at_full_depth():
    a, run = full_depth_run()
    basis = np.hstack(run.panels[: run.n_steps])
    cert = theorem1_certificate(run.t, basis, a, epsilon2=1e-14)
    assert cert.epsilon1 == 0.0
    assert cert.bound == 3.0 * np.sqrt(run.t.n_blocks) * 1e-14 * run.a_norm
    assert cert.holds


def test_certificate_fails_for_truncated_model():
    # interior Ritz values of a shallow run are far from eigenvalues, so
    # a tiny claimed backward error cannot certify them
    a, _, rng = rand_spd(16, 55)
    run = run_block_lanczos(a, rng.standard_normal((16, 2)), k_max=3,
                            mode="simulated_exact")
    basis = np.hstack(run.panels[:3])
    cert = theorem1_certificate(run.t, basis, a, epsilon2=1e-15)
    assert not cert.holds


def test_certificate_small_column_pairing():
    a, run = full_depth_run(seed=56)
    basis = np.hstack(run.panels[: run.n_steps])
    thetas, s = np.linalg.eigh(basis.T @ a @ basis)
    # suppress the direction of the lowest model eigenvector: its Ritz
    # column collapses and must pair with the nearest surviving value
    basis_small = basis - np.outer(basis @ s[:, 0], s[:, 0])
    cert = theorem1_certificate(run.t, basis_small, a, epsilon2=1e-14)
    want = float(np.min(np.abs(thetas[1:] - thetas[0]))) / run.a_norm
    assert np.isclose(cert.epsilon1, want, rtol=1e-8)
    assert cert.epsilon1 > 0.0


def test_certificate_needs_an_anchor():
    a, run = full_depth_run(seed=57)
    with pytest.raises(AssumptionUnsatisfiable):
        theorem1_certificate(run.t, np.zeros((12, 12)), a, epsilon2=1e-14)


def test_certificate_rejects_a_non_finite_operator():
    a, run = full_depth_run(seed=58)
    a[3, 4] = a[4, 3] = np.nan
    with pytest.raises(NonFiniteOperator):
        theorem1_certificate(run.t, np.hstack(run.panels[: run.n_steps]), a, epsilon2=1e-14)
