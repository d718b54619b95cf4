"""Interlacing, containment scan, clusters, spread, certificate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from blocklanczos.analysis import _nearest
from blocklanczos.linalg import as_operator, sym_eig
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


def test_interlacing_rejects_an_empty_step():
    with pytest.raises(ShapeMismatch):
        interlacing_check([], [1.0], 1)


def test_p_below_one_is_a_value_error():
    # lengths that agree with p, so only p itself is wrong
    with pytest.raises(ValueError, match="p must be >= 1"):
        interlacing_check([1.0, 2.0], [0.5, 1.5], 0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        interlacing_check([1.0, 2.0, 3.0], [1.5, 2.5], -1)
    with pytest.raises(ValueError, match="p must be >= 1"):
        conjecture_scan([[1.0, 2.0], [0.5, 2.5]], 0)


def test_p_that_is_not_an_integer_is_a_value_error():
    # lengths that agree with p = 2, so only its type is wrong
    with pytest.raises(ValueError, match="p must be an integer, got 2.0"):
        interlacing_check([1.0, 2.0], [0.5, 1.5, 2.5, 3.0], 2.0)
    with pytest.raises(ValueError, match="p must be an integer, got 2.0"):
        conjecture_scan([[1.0, 2.0], [0.5, 1.0, 2.0, 2.5]], 2.0)


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


def test_conjecture_scan_rejects_a_step_of_the_wrong_length():
    with pytest.raises(ShapeMismatch):
        conjecture_scan([[1.0, 2.0, 3.0], [1.0, 2.0]], 1)
    with pytest.raises(ShapeMismatch):
        conjecture_scan([[1.0], [0.0, 2.0], [0.0, 1.0, 2.0, 3.0]], 1)


def test_clusters_kinds_and_member_indexing():
    thetas = np.array([3.0, 1.0, 1.0005])
    base_near = np.array([1.0002, 3.0])
    labels = classify_clusters(thetas, base_near, psi=1e-3, eta=1e-6)
    assert [lab.kind for lab in labels] == ["proper", "separated"]
    assert labels[0].members == [1, 2]
    assert labels[1].members == [0]
    assert labels[0].theta_min == 1.0 and labels[0].theta_max == 1.0005
    # move the reference away: the pair has no eigenvalue to explain it
    labels = classify_clusters(thetas, np.array([5.0]), psi=1e-3, eta=1e-6)
    assert [lab.kind for lab in labels] == ["improper", "separated"]


@pytest.mark.parametrize("psi, eta", [(-1e-3, 1e-6), (1e-3, -1e-6), (np.nan, 1e-6),
                                      (1e-3, np.nan)])
def test_clusters_reject_a_negative_or_nan_threshold(psi, eta):
    with pytest.raises(ValueError, match="psi and eta must be >= 0"):
        classify_clusters(np.array([1.0, 1.0005]), np.array([1.0]), psi, eta)


def test_clusters_partition_property():
    rng = np.random.default_rng(52)
    for _ in range(20):
        thetas = rng.uniform(0.0, 10.0, 15)
        labels = classify_clusters(thetas, rng.uniform(0, 10, 4), psi=0.02, eta=0.001)
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


def test_spread_needs_a_reference_value():
    with pytest.raises(ShapeMismatch):
        interval_spread(np.array([1.0, 2.0]), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spread_rejects_a_non_finite_model_eigenvalue(bad):
    # unchecked, a NaN lands at the top reference value and leaves its width at 0
    with pytest.raises(NonFiniteOperator):
        interval_spread([1.0, bad, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spread_rejects_a_non_finite_reference_eigenvalue(bad):
    # unchecked, a NaN reference value gives a NaN width
    with pytest.raises(NonFiniteOperator, match="reference"):
        interval_spread([1.0, 2.0, 3.0], [1.0, bad, 3.0])


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
    cert = theorem1_certificate(run.t, run.n_steps, basis, a, epsilon2=1e-14)
    assert cert.epsilon1 == 0.0
    assert cert.bound == 3.0 * np.sqrt(run.n_steps) * 1e-14 * run.a.norm
    assert cert.holds


def test_certificate_fails_for_truncated_model():
    # interior Ritz values of a shallow run are far from eigenvalues, so
    # a tiny claimed backward error cannot certify them
    a, _, rng = rand_spd(16, 55)
    run = run_block_lanczos(a, rng.standard_normal((16, 2)), k_max=3,
                            mode="simulated_exact")
    basis = np.hstack(run.panels[:3])
    cert = theorem1_certificate(run.t, 3, basis, a, epsilon2=1e-15)
    assert not cert.holds


def test_certificate_small_column_pairing():
    a, run = full_depth_run(seed=56)
    basis = np.hstack(run.panels[: run.n_steps])
    thetas, s = np.linalg.eigh(basis.T @ a @ basis)
    # suppress the direction of the lowest model eigenvector: its Ritz
    # column collapses and must pair with the nearest surviving value
    basis_small = basis - np.outer(basis @ s[:, 0], s[:, 0])
    cert = theorem1_certificate(run.t, run.n_steps, basis_small, a, epsilon2=1e-14)
    want = float(np.min(np.abs(thetas[1:] - thetas[0]))) / run.a.norm
    assert np.isclose(cert.epsilon1, want, rtol=1e-8)
    assert cert.epsilon1 > 0.0


def test_certificate_needs_an_anchor():
    a, run = full_depth_run(seed=57)
    with pytest.raises(AssumptionUnsatisfiable):
        theorem1_certificate(run.t, run.n_steps, np.zeros((12, 12)), a, epsilon2=1e-14)


def test_certificate_with_a_small_column_needs_a_nonzero_operator():
    # epsilon1 is a distance over norm(A); at A = 0 it has no scale
    tn = np.array([[1.0, 0.5], [0.5, 2.0]])
    with pytest.raises(AssumptionUnsatisfiable, match="norm"):
        theorem1_certificate(tn, 2, np.diag([0.2, 1.0]), np.zeros((2, 2)), epsilon2=1e-3)


def test_certificate_rejects_a_non_finite_operator():
    a, run = full_depth_run(seed=58)
    a[3, 4] = a[4, 3] = np.nan
    with pytest.raises(NonFiniteOperator):
        theorem1_certificate(run.t, run.n_steps, np.hstack(run.panels[: run.n_steps]), a,
                             epsilon2=1e-14)


def test_certificate_rejects_a_non_square_model():
    a, run = full_depth_run(seed=59)
    basis = np.hstack(run.panels[: run.n_steps])
    for tn in (run.t[:, :-1], run.t[0], np.zeros((12, 12, 1))):
        with pytest.raises(ShapeMismatch, match="square"):
            theorem1_certificate(tn, 6, basis, a, epsilon2=1e-14)


@pytest.mark.parametrize("n_blocks", [0, -1, 13, 2.5])
def test_certificate_rejects_a_block_count_outside_the_dimension(n_blocks):
    # sqrt(N) scales the bound: N must be an integer between 1 and the model dimension
    a, run = full_depth_run(seed=60)
    basis = np.hstack(run.panels[: run.n_steps])
    error, match = ((ShapeMismatch, "blocks") if n_blocks % 1 == 0
                    else (ValueError, "n_blocks must be an integer"))
    with pytest.raises(error, match=match):
        theorem1_certificate(run.t, n_blocks, basis, a, epsilon2=1e-14)
    assert theorem1_certificate(run.t, 12, basis, a, epsilon2=1e-14).holds


@pytest.mark.parametrize("epsilon2", [np.nan, -1.0, np.inf])
def test_certificate_rejects_an_epsilon2_outside_zero_to_inf(epsilon2):
    # unchecked, NaN gives a NaN bound, -1 a zero bound and inf certifies anything
    a, run = full_depth_run(seed=62)
    basis = np.hstack(run.panels[: run.n_steps])
    with pytest.raises(ValueError, match="epsilon2"):
        theorem1_certificate(run.t, run.n_steps, basis, a, epsilon2)


def test_certificate_rejects_a_basis_of_the_wrong_width():
    a, run = full_depth_run(seed=61)
    basis = np.hstack(run.panels[: run.n_steps])
    for wrong in (basis[:, :-1], np.hstack([basis, basis[:, :1]]), basis[:, 0]):
        with pytest.raises(ShapeMismatch, match="dimension 12"):
            theorem1_certificate(run.t, run.n_steps, wrong, a, epsilon2=1e-14)


# ---------------------------------------------------------------------------
# brute-force references: the same bookkeeping one value at a time, compared
# bit for bit with the array code


def ref_interlacing(tk, tk1, p):
    big_k = tk.size
    bad = []
    if not tk1[0] < tk[0]:
        bad.append(("bottom", 1, float(tk1[0]), float(tk[0])))
    for i0 in range(big_k - p):
        if not tk[i0] < tk1[i0 + p]:
            bad.append(("lower", i0 + 1, float(tk[i0]), float(tk1[i0 + p])))
        if not tk1[i0 + p] < tk[i0 + p]:
            bad.append(("upper", i0 + 1, float(tk1[i0 + p]), float(tk[i0 + p])))
    if not tk[big_k - 1] < tk1[big_k + p - 1]:
        bad.append(("top", big_k, float(tk[big_k - 1]), float(tk1[big_k + p - 1])))
    return bad


def ref_scan(seq, p):
    rows = []
    for ki, tk in enumerate(seq):
        for i0 in range(tk.size - p):
            lo, hi = float(tk[i0]), float(tk[i0 + p])
            for ji in range(ki + 1, len(seq)):
                tj = seq[ji]
                inside = np.searchsorted(tj, lo, side="right") < np.searchsorted(
                    tj, hi, side="left"
                )
                rows.append((ki + 1, i0 + 1, ji + 1, lo, hi, bool(inside)))
    violations = [(k - 1, i, j - 1) for k, i, j, _, _, inside in rows if not inside]
    return rows, violations


def ref_clusters(thetas, base_eigs, a_norm, psi, eta):
    thetas = np.asarray(thetas, dtype=float)
    base = np.sort(np.asarray(base_eigs, dtype=float))

    def label(group):
        lo = float(np.min(thetas[group]))
        hi = float(np.max(thetas[group]))
        if len(group) == 1:
            kind = "separated"
        else:
            touched = np.any((base >= lo - eta * a_norm) & (base <= hi + eta * a_norm))
            kind = "proper" if touched else "improper"
        return (kind, list(group), lo, hi)

    order = np.argsort(thetas, kind="stable")
    labels = []
    group = [int(order[0])] if order.size else []
    for pos in range(1, order.size):
        idx = int(order[pos])
        prev = int(order[pos - 1])
        if thetas[idx] - thetas[prev] <= psi * a_norm:
            group.append(idx)
        else:
            labels.append(label(group))
            group = [idx]
    if group:
        labels.append(label(group))
    return labels


def ref_spread(tn_eigs, base_eigs):
    tn_eigs = np.asarray(tn_eigs, dtype=float)
    base = np.sort(np.asarray(base_eigs, dtype=float))
    nb = base.size
    widths = np.zeros(nb)
    counts = np.zeros(nb, dtype=int)
    for t in tn_eigs:
        pos = int(np.searchsorted(base, t))
        lo = max(pos - 1, 0)
        hi = min(pos, nb - 1)
        idx = lo if abs(t - base[lo]) <= abs(t - base[hi]) else hi
        counts[idx] += 1
        widths[idx] = max(widths[idx], abs(t - base[idx]))
    return base, widths, counts


def ref_certificate(tn, basis, a, epsilon2):
    a = as_operator(a)
    eigs_a, a_norm = a.eigvals, a.norm
    thetas, s = sym_eig(tn)
    z_norms = np.linalg.norm(basis @ s, axis=0)
    small = z_norms < 0.5
    eps1 = 0.0
    if small.any():
        large = ~small
        if not large.any():
            raise AssumptionUnsatisfiable("every model Ritz vector has norm below 0.5")
        for theta in thetas[small]:
            eps1 = max(eps1, float(np.min(np.abs(thetas[large] - theta))) / a_norm)
    bound = 3.0 * max(np.sqrt(tn.shape[0]) * epsilon2, eps1) * a_norm  # 1 x 1 blocks
    dists = np.array([float(np.min(np.abs(eigs_a - t))) for t in thetas])
    return float(eps1), float(bound), bool(np.all(dists <= bound)), thetas


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# a coarse grid, so that draws tie, land on interval endpoints and hold both zeros
GRID = st.sampled_from([-0.0] + [i / 4 for i in range(-8, 9)])


def ascending(size):
    return st.lists(GRID, min_size=size, max_size=size).map(lambda v: np.sort(np.array(v)))


@st.composite
def ritz_sequences(draw):
    p = draw(st.integers(1, 3))
    first = draw(st.integers(1, 4))
    return p, [draw(ascending(first + s * p)) for s in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ritz_sequences(), st.lists(GRID | st.just(float("nan")), max_size=9),
       st.lists(GRID, min_size=1, max_size=6),
       st.sampled_from([0.0, 0.125, 0.25, 1.0]), st.sampled_from([0.0, 0.125, 0.5]))
# a cluster of both zeros: its ends are the min and max, not the first and last
@example(ritz=(1, [np.array([1.0])]), values=[0.0, -0.0], base=[0.0], psi=0.0, eta=0.0)
def test_array_forms_equal_the_loops(ritz, values, base, psi, eta):
    p, seq = ritz
    for small, large in zip(seq, seq[1:]):
        assert repr(interlacing_check(small, large, p)) == repr(ref_interlacing(small, large, p))
    scan = conjecture_scan(seq, p)
    assert repr((scan.rows, scan.violations)) == repr(ref_scan(seq, p))
    assert scan.checks == len(scan.rows)
    labels = classify_clusters(values, base, psi, eta)  # norm(A) = max|base|
    assert repr([(c.kind, c.members, c.theta_min, c.theta_max) for c in labels]) == repr(
        ref_clusters(values, base, max(abs(b) for b in base), psi, eta))
    if np.isnan(values).any():
        with pytest.raises(NonFiniteOperator):
            interval_spread(values, base)
    else:
        spread = interval_spread(values, base)
        for got, want in zip((spread.base_eigs, spread.widths, spread.counts),
                             ref_spread(values, base)):
            assert same_bits(got, want)
        assert spread.dim == len(values)
    # the certificate's distance: the nearest of all reference values
    ref = np.sort(np.array(base))
    idx, dist = _nearest(ref, np.array(values))
    want = np.array([float(np.min(np.abs(ref - t))) for t in values])
    assert same_bits(dist, want)
    assert np.array_equal(np.abs(np.array(values) - ref[idx]), dist, equal_nan=True)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certificate_equals_the_loops(data):
    dim = data.draw(st.integers(1, 6))
    alphas = data.draw(st.lists(GRID, min_size=dim, max_size=dim))
    betas = data.draw(st.lists(GRID, min_size=dim - 1, max_size=dim - 1))
    tn, i = np.zeros((dim, dim)), np.arange(dim)
    tn[i, i] = alphas  # placed, not summed: a -0.0 entry keeps its sign
    tn[i[1:], i[:-1]] = tn[i[:-1], i[1:]] = betas
    # column scales around the 0.5 cut, so some model Ritz vectors are small
    basis = np.diag(data.draw(st.lists(st.sampled_from([0.2, 0.45, 0.7, 1.0]),
                                       min_size=dim, max_size=dim)))
    a = np.diag(data.draw(st.lists(GRID, min_size=dim, max_size=dim)))
    epsilon2 = data.draw(st.sampled_from([0.0, 1e-3, 0.1]))
    try:
        want = ref_certificate(tn, basis, a, epsilon2)
    except Exception as exc:  # the same failure, typed where the loops divide by norm(A) = 0
        with pytest.raises(AssumptionUnsatisfiable if isinstance(exc, ZeroDivisionError)
                           else type(exc)):
            theorem1_certificate(tn, dim, basis, a, epsilon2)
        return
    got = theorem1_certificate(tn, dim, basis, a, epsilon2)
    assert repr(got[:3]) == repr(want[:3])
    assert same_bits(got.thetas, want[3])
    # holds is read from the spread the certificate carries, measured by interval_spread
    assert got.holds is (got.spread.max_width <= got.bound)
    spread = interval_spread(got.thetas, as_operator(a).eigvals)
    for name in ("base_eigs", "widths", "counts"):
        assert same_bits(getattr(got.spread, name), getattr(spread, name))
