"""Problem generators and the Matrix Market reader.

The spectrum oracles below were computed from the closed-form eigenvalue
formula in plain Python floats, independently of the implementation.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklanczos import (
    BlurSpec,
    InnerBreakdown,
    OverlappingIntervals,
    ParseError,
    SpectrumSpec,
    UnsupportedField,
    blurred_problem,
    kron_perturbed_problem,
    random_orthonormal,
    read_matrix_market,
    run_block_lanczos,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def fixture(name):
    return os.path.join(DATA, name)


# -- graded spectra ----------------------------------------------------------

def test_spectrum_frozen_values():
    lam = strakos_spectrum(strakos48(0.1, 100.0))
    assert lam[0] == 0.1 and lam[-1] == 100.0
    assert lam[1] == 0.10007406397757092
    assert lam[46] == 78.319574468085108
    lam2 = strakos_spectrum(strakos48(0.001, 1.0))
    assert lam2[1] == 0.0010007406397757092


def test_spectrum_matches_direct_formula():
    spec = SpectrumSpec(17, 0.25, 9.0, 0.65)
    lam = strakos_spectrum(spec)
    for i in range(1, spec.n + 1):
        direct = 0.25 + ((i - 1) / (spec.n - 1)) * (9.0 - 0.25) * 0.65 ** (spec.n - i)
        assert abs(lam[i - 1] - direct) <= 1e-15 * max(direct, 1.0)
    assert np.all(np.diff(lam) > 0)


def test_spectrum_spec_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(1, 0.1, 1.0, 0.8)
    with pytest.raises(ValueError):
        SpectrumSpec(10, 0.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        SpectrumSpec(10, 2.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        SpectrumSpec(10, 0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        SpectrumSpec(10, 0.1, 1.0, 1.5)
    with pytest.raises(ValueError, match="n must be an integer, got 16.7"):
        SpectrumSpec(16.7, 0.1, 100.0, 0.8)


def test_spectrum_to_matrix_round_trip():
    eigs = np.array([0.5, 1.25, 2.0, 7.5])
    a, u = spectrum_to_matrix(eigs, 11)
    assert np.array_equal(a, a.T)
    assert np.linalg.norm(u.T @ u - np.eye(4)) < 1e-14
    assert np.allclose(np.linalg.eigvalsh(a), eigs, atol=1e-13)
    a2, _ = spectrum_to_matrix(eigs, 11)
    assert np.array_equal(a, a2)


def test_in_place_symmetrization_keeps_the_bits():
    # a += a.T reads a buffered copy of the overlapping a.T, so the result
    # is the out-of-place 0.5 * (a + a.T) bit for bit
    eigs = strakos_spectrum(SpectrumSpec(600, 0.1, 100.0, 0.8))
    a, u = spectrum_to_matrix(eigs, 1)
    raw = (u * eigs) @ u.T
    assert np.array_equal(a, 0.5 * (raw + raw.T))


def test_random_orthonormal_deterministic():
    q = random_orthonormal(6, 2)
    assert np.linalg.norm(q.T @ q - np.eye(6)) < 1e-14
    assert np.array_equal(q, random_orthonormal(6, 2))
    assert not np.array_equal(q, random_orthonormal(6, 3))


# -- blurred spectra ---------------------------------------------------------

def test_blur_geometry():
    base = np.array([1.0, 2.0, 3.5])
    y = np.eye(3)
    b = np.array([[1.0, 0.5], [2.0, 0.0], [-1.0, 3.0]])
    blur = BlurSpec(5, 0.2)
    a_hat, b_hat = blurred_problem(base, y, b, blur)
    assert a_hat.shape == (15,) and b_hat.shape == (15, 2)
    for i, lam in enumerate(base):
        cluster = a_hat[5 * i : 5 * (i + 1)]
        # midpoint is the base eigenvalue, span is exactly delta
        assert cluster[2] == lam
        assert np.isclose(cluster[0], lam - 0.1, atol=1e-15)
        assert np.isclose(cluster[-1], lam + 0.1, atol=1e-15)
        assert np.allclose(np.diff(cluster), 0.05, atol=1e-15)
    assert np.all(np.diff(a_hat) > 0)


def test_blur_weight_split_preserves_mass():
    rng = np.random.default_rng(12)
    base = np.sort(rng.uniform(1.0, 10.0, 6))
    y = random_orthonormal(6, rng)
    b = rng.standard_normal((6, 2))
    a_hat, b_hat = blurred_problem(base, y, b, BlurSpec(3, 1e-3))
    weights = y.T @ b
    for i in range(6):
        rows = b_hat[3 * i : 3 * (i + 1)]
        # equal entries down the cluster, squared mass preserved
        assert np.allclose(rows, weights[i] / np.sqrt(3.0), atol=1e-15)
        assert np.allclose(
            np.sum(rows**2, axis=0), weights[i] ** 2, rtol=1e-14, atol=1e-300
        )


def test_blur_refuses_touching_clusters():
    base = np.array([1.0, 2.0, 4.0])
    with pytest.raises(OverlappingIntervals):
        blurred_problem(base, np.eye(3), np.ones((3, 1)), BlurSpec(3, 1.0))
    # just under the smallest gap is fine
    blurred_problem(base, np.eye(3), np.ones((3, 1)), BlurSpec(3, 0.999))


def test_blur_spec_validation():
    with pytest.raises(ValueError):
        BlurSpec(4, 0.1)
    with pytest.raises(ValueError):
        BlurSpec(1, 0.1)
    with pytest.raises(ValueError):
        BlurSpec(3, 0.0)
    with pytest.raises(ValueError):
        BlurSpec(3, float("nan"))
    with pytest.raises(ValueError, match="m must be an integer, got 3.5"):
        BlurSpec(3.5, 0.1)


# -- width-p test operator ---------------------------------------------------

def test_kron_problem_mirrors_scalar_run():
    spec = SpectrumSpec(10, 0.5, 4.0, 0.9)
    p = 2
    a, v = kron_perturbed_problem(spec, p, 0.0, seed=5)
    assert a.shape == (10 * p, 10 * p) and np.array_equal(a, a.T)
    assert np.linalg.norm(v.T @ v - np.eye(p)) < 1e-14

    # replay the generator's draws to recover the scalar tridiagonal
    rng = np.random.default_rng(5)
    b_mat, _ = spectrum_to_matrix(strakos_spectrum(spec), rng)
    y = rng.standard_normal((10, 1))
    inner = run_block_lanczos(b_mat, y, k_max=10, mode="simulated_exact")
    t_tilde = inner.t
    s = inner.n_steps

    run = run_block_lanczos(a, v, k_max=s, mode="simulated_exact")
    assert run.n_steps == s
    got = run.t
    want = np.kron(t_tilde, np.eye(p))
    assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)


def test_kron_problem_perturbation_scale():
    spec = SpectrumSpec(10, 0.5, 4.0, 0.9)
    a0, v0 = kron_perturbed_problem(spec, 2, 0.0, seed=5)
    a1, v1 = kron_perturbed_problem(spec, 2, 1e-12, seed=5)
    assert np.array_equal(v0, v1)
    shift = np.linalg.norm(a1 - a0, 2)
    assert 0.0 < shift < 1e-10


def test_kron_problem_rejects_bad_input():
    with pytest.raises(ValueError):
        kron_perturbed_problem(SpectrumSpec(10, 0.5, 4.0, 0.9), 0, 0.0, 1)
    with pytest.raises(ValueError, match="p must be an integer, got 2.0"):
        kron_perturbed_problem(SpectrumSpec(10, 0.5, 4.0, 0.9), 2.0, 0.0, 1)
    with pytest.raises(InnerBreakdown):
        kron_perturbed_problem(SpectrumSpec(2, 0.5, 4.0, 0.9), 2, 0.0, 1)


# -- matrix market reader ----------------------------------------------------

def test_read_coordinate_symmetric():
    out = read_matrix_market(fixture("coord_sym.mtx"))
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.5]])
    assert np.array_equal(out, want)


def test_read_coordinate_general():
    out = read_matrix_market(fixture("coord_gen.mtx"))
    want = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, -2.5]])
    assert np.array_equal(out, want)


def test_read_array_general_is_column_major():
    out = read_matrix_market(fixture("array_gen.mtx"))
    assert np.array_equal(out, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_read_array_symmetric_packed():
    out = read_matrix_market(fixture("array_sym.mtx"))
    want = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert np.array_equal(out, want)


def test_read_array_with_comments_blanks_and_extra_tokens(tmp_path):
    # one number per line is the usual form; a line with more tokens keeps
    # its first one, as it always has, and a bad number names its line
    text = ["%%MatrixMarket matrix array real general", "% size next", "2 3",
            "1.5", "", "% a comment between values", "-2", "  3e1  ", "4 extra tokens",
            "5", "", "6"]
    path = tmp_path / "messy.mtx"
    path.write_text("\n".join(text) + "\n")
    want = np.array([[1.5, 30.0, 5.0], [-2.0, 4.0, 6.0]])
    assert np.array_equal(read_matrix_market(str(path)), want)
    for at in (1, 3):  # an indented comment, before the size line and after it
        path.write_text("\n".join(text[:at] + ["  % indented note"] + text[at:]) + "\n")
        assert np.array_equal(read_matrix_market(str(path)), want)
    path.write_text("\n".join(text[:9] + ["1.0 x"]) + "\n")  # extra tokens, then too few values
    with pytest.raises(ParseError) as info:
        read_matrix_market(str(path))
    assert info.value.line_number == 10 and "array needs 6 values, found 5" in str(info.value)
    for bad_line in ("x", "x 1.0"):
        path.write_text("\n".join(text[:5] + [bad_line] + text[5:]) + "\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(str(path))
        assert info.value.line_number == 6 and "bad number" in str(info.value)


def test_read_integer_field():
    out = read_matrix_market(fixture("coord_int.mtx"))
    assert np.array_equal(out, np.diag([3.0, 7.0]))


def test_reader_refuses_unsupported_fields():
    with pytest.raises(UnsupportedField):
        read_matrix_market(fixture("field_pattern.mtx"))
    with pytest.raises(UnsupportedField):
        read_matrix_market(fixture("field_complex.mtx"))


def test_reader_reports_line_numbers():
    with pytest.raises(ParseError) as info:
        read_matrix_market(fixture("bad_banner.mtx"))
    assert info.value.line_number == 1
    with pytest.raises(ParseError) as info:
        read_matrix_market(fixture("coord_short_entry.mtx"))
    assert info.value.line_number == 4
    assert "line 4" in str(info.value)
    with pytest.raises(ParseError) as info:
        read_matrix_market(fixture("coord_negative_size.mtx"))
    assert info.value.line_number == 2 and "negative" in str(info.value)
    with pytest.raises(ParseError) as info:
        read_matrix_market(fixture("array_sym_nonsquare.mtx"))
    assert info.value.line_number == 2 and "not square" in str(info.value)
    # the mirrored entry (3, 1) of a 2 x 3 symmetric file has no row 3
    with pytest.raises(ParseError) as info:
        read_matrix_market(fixture("coord_sym_nonsquare.mtx"))
    assert info.value.line_number == 2 and "not square" in str(info.value)


def test_reader_checks_entry_count():
    with pytest.raises(ParseError):
        read_matrix_market(fixture("coord_count.mtx"))


def test_bad_entry_fails_before_the_declared_array_is_allocated(tmp_path):
    # 4000 x 4000 float64 is 128 MB; the reader must stop at line 4 first
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n4000 4000 2\n"
                    "1 1 1.0\n2 x 3.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            read_matrix_market(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.line_number == 4 and "bad number '2 x 3.0'" in str(info.value)
    assert peak < 8 * 2**20


def test_symmetric_coordinate_entries_resolve_in_file_order(tmp_path):
    # both triangles of (1, 2), and (3, 1) twice: each entry and its mirror
    # are placed in file order, so the later entry wins in both places
    path = tmp_path / "both.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
                    "2 1 5.0\n1 2 7.0\n3 3 1.5\n3 1 -2.0\n3 1 4.0\n")
    want = np.array([[0.0, 7.0, 4.0], [7.0, 0.0, 0.0], [4.0, 0.0, 1.5]])
    assert np.array_equal(read_matrix_market(str(path)), want)


# Drawn files: raw bytes (one in four), or a well-formed file of at most 3 x 3 (a
# file whose entries all check out is read into a dense rows x cols array)
# with one line inserted at random half of the time.
_NUMBER = st.sampled_from(["0", "1", "2", "3", "4", "-1", "1.5", "-2e1"])
_TOKENS = st.sampled_from(["0", "1", "-1", "1.5", "nan", "x", "%", "%c", "", "1 2", "a b c"])


@st.composite
def _mtx_files(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=40))
    layout = draw(st.sampled_from(["coordinate", "array"]))
    field = draw(st.sampled_from(["real", "integer", "real", "complex", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "symmetric", "skew-symmetric"]))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if symmetry == "symmetric" and draw(st.booleans()):
        cols = rows
    if layout == "coordinate":
        count = draw(st.integers(0, 4))
        size = "%d %d %d" % (rows, cols, count)
        entries = [" ".join(draw(st.tuples(_NUMBER, _NUMBER, _NUMBER))) for _ in range(count)]
    else:
        count = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        size = "%d %d" % (rows, cols)
        entries = [draw(_NUMBER) for _ in range(count)]
    lines = ["%%%%MatrixMarket matrix %s %s %s" % (layout, field, symmetry), "% comment", size]
    lines += entries
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_TOKENS))
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "drawn.mtx"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(content=_mtx_files())
def test_reader_returns_an_array_or_a_typed_error(mtx_path, content):
    mtx_path.write_bytes(content)
    try:
        out = read_matrix_market(str(mtx_path))
    except (ParseError, UnsupportedField):
        return
    assert isinstance(out, np.ndarray) and out.ndim == 2 and out.dtype == float
