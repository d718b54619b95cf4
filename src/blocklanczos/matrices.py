"""Test problem generators and Matrix Market input.

Everything here is deterministic for a fixed seed: generators draw from a
``numpy.random.Generator`` in a documented order, so the same seed gives
bit-identical problems across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InnerBreakdown, OverlappingIntervals, ParseError, UnsupportedField
from .linalg import Operator, check_integer, householder_qr


@dataclass(frozen=True)
class SpectrumSpec:
    """Parameters of a geometrically graded spectrum.

    The eigenvalues fill ``[lambda_1, lambda_n]`` with spacing damped by
    ``rho**(n-i)``, which piles most of them up near the right endpoint and
    makes orthogonality loss show quickly in plain Lanczos runs.
    """

    n: int
    lambda_1: float
    lambda_n: float
    rho: float = 0.8

    def __post_init__(self):
        check_integer("n", self.n, 2)
        if not (0.0 < self.lambda_1 < self.lambda_n):
            raise ValueError("need 0 < lambda_1 < lambda_n")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must be in (0, 1]")


def strakos48(lambda_1: float, lambda_n: float, rho: float = SpectrumSpec.rho) -> SpectrumSpec:
    """The 48-point graded spectrum used throughout the experiments."""
    return SpectrumSpec(48, lambda_1, lambda_n, rho)


def strakos_spectrum(spec: SpectrumSpec) -> np.ndarray:
    """Nondecreasing eigenvalues for a SpectrumSpec.

    lambda_i = lambda_1 + ((i-1)/(n-1)) * (lambda_n - lambda_1) * rho**(n-i)
    with both endpoints assigned exactly. For large n and small rho the
    added term is lost against lambda_1 in floating point, so values tie:
    n = 600, rho = 0.8 gives 404 values equal to lambda_1 and 408 zero gaps.
    """
    n = spec.n
    i = np.arange(1, n + 1, dtype=float)
    lam = spec.lambda_1 + ((i - 1.0) / (n - 1.0)) * (spec.lambda_n - spec.lambda_1) * spec.rho ** (
        n - i
    )
    lam[0] = spec.lambda_1
    lam[-1] = spec.lambda_n
    return lam


def random_orthonormal(n: int, seed) -> np.ndarray:
    """Orthonormal n x n matrix from QR of a standard normal draw."""
    return householder_qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def spectrum_to_matrix(eigs: np.ndarray, seed):
    """Dense symmetric matrix with the given eigenvalues.

    Draws a random orthonormal basis U and forms ``U diag(eigs) U^T``,
    symmetrized to kill the last bits of rounding asymmetry.

    Returns
    -------
    a : ndarray, shape (n, n)
    u : ndarray, shape (n, n)
        The basis used, so callers can build aligned right-hand sides.
    """
    eigs = np.asarray(eigs, dtype=float)
    u = random_orthonormal(eigs.size, seed)
    a = (u * eigs) @ u.T
    a += a.T  # numpy buffers the overlapping a.T: the bits of 0.5 * (a + a.T)
    a *= 0.5
    return a, u


@dataclass(frozen=True)
class BlurSpec:
    """Blur parameters: points per eigenvalue (an odd integer) and total width."""

    m: int
    delta: float

    def __post_init__(self):
        check_integer("m", self.m)
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError("m must be odd and >= 3")
        if not self.delta > 0.0:  # also rejects NaN
            raise ValueError("delta must be > 0")


def blurred_problem(base_eigs: np.ndarray, y: np.ndarray, b: np.ndarray, blur: BlurSpec):
    """Replace each eigenvalue by a tight cluster and split the data onto it.

    Each base eigenvalue lambda_i becomes m equispaced points spanning an
    interval of width ``delta`` centered on lambda_i (m odd, so the
    midpoint is lambda_i itself). The weight of the right-hand side along
    eigenvector y_i is divided evenly over the cluster: each of the m new
    coordinates of column t gets ``(y_i^T b_t) / sqrt(m)``, which preserves
    the total squared weight per cluster and column.

    Parameters
    ----------
    base_eigs : (n,) increasing eigenvalues of the original matrix.
    y : (n, n) orthonormal eigenvectors, column i belonging to base_eigs[i].
    b : (n, p) right-hand side block in the original coordinates.
    blur : BlurSpec

    Returns
    -------
    a_hat : (n*m,) eigenvalues of the blurred operator. It is diagonal in
        its own coordinates, so pass ``a_hat`` itself to `cg.hs_bcg` or
        `cg.dr_bcg`, which apply a 1-D operator as a diagonal.
    b_hat : (n*m, p) right-hand side in the blurred coordinates.

    Raises
    ------
    OverlappingIntervals
        If ``delta`` is at least the smallest gap of ``base_eigs``, in
        which case neighboring clusters would touch or cross.
    """
    base_eigs = np.asarray(base_eigs, dtype=float)
    n = base_eigs.size
    if n >= 2:
        min_gap = float(np.min(np.diff(np.sort(base_eigs))))
        if blur.delta >= min_gap:
            raise OverlappingIntervals(
                "delta %.3e >= smallest spectral gap %.3e" % (blur.delta, min_gap)
            )
    m = blur.m
    j = np.arange(1, m + 1, dtype=float)
    offsets = (j - (m + 1) / 2.0) / (m - 1.0) * blur.delta
    a_hat = (base_eigs[:, None] + offsets[None, :]).ravel()
    weights = y.T @ b  # row i holds y_i^T b_t over columns t
    b_hat = np.repeat(weights, m, axis=0) / np.sqrt(m)
    return a_hat, b_hat


def kron_perturbed_problem(spec: SpectrumSpec, p: int, omega: float, seed):
    """Width-p test matrix whose exact block run mirrors a scalar run.

    Construction: draw a dense symmetric B with the graded spectrum, run
    exact single-vector Lanczos on it with a random start until the
    recurrence closes, and take the resulting s x s tridiagonal T. The
    returned operator is

        A = U (T kron (I_p + omega * E)) U^T,    v = U (e_1 kron I_p),

    with U a random orthonormal basis and E a random p x p matrix. With
    omega = 0 an exact block run started at v reproduces T block by block
    (every block a multiple of I_p); a tiny omega breaks the degeneracy at
    the 1e-12 scale and turns each multiple eigenvalue into a tight proper
    cluster.

    Returns ``(a, v)`` with ``a`` of size (s*p, s*p), symmetric, and ``v``
    of shape (s*p, p) with orthonormal columns.
    """
    from .lanczos import run_block_lanczos

    check_integer("p", p, 1)
    rng = np.random.default_rng(seed)
    eigs = strakos_spectrum(spec)
    b_mat, _ = spectrum_to_matrix(eigs, rng)
    y = rng.standard_normal((spec.n, 1))
    inner = run_block_lanczos(Operator(b_mat, eigs), y, k_max=spec.n, mode="simulated_exact")
    s = inner.n_steps
    if s < 3:
        raise InnerBreakdown("inner run closed after %d steps; need at least 3" % s)
    e = rng.standard_normal((p, p))
    core = np.kron(inner.t, np.eye(p) + omega * e)
    u = random_orthonormal(s * p, rng)
    a = u @ core @ u.T
    return 0.5 * (a + a.T), u[:, :p].copy()


def read_matrix_market(path: str) -> np.ndarray:
    """Read a real Matrix Market file into a dense ndarray.

    Supports ``coordinate`` and ``array`` formats with ``real`` or
    ``integer`` fields and ``general`` or ``symmetric`` symmetry; symmetric
    storage (lower triangle) is expanded. Complex, pattern, and skew fields
    are refused with UnsupportedField. Structural errors raise ParseError
    with the offending 1-based line number. A blank line, or one whose
    first token starts with ``%``, is a comment wherever it stands; the
    size line and the entries are read from the lines left. Every entry and
    the entry count are validated, in one pass over the data lines, before
    the dense array is allocated.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].strip().lower().split()
    if len(header) < 4 or header[0] != "%%matrixmarket":
        raise ParseError("missing MatrixMarket banner", 1)
    if header[1] != "matrix":
        raise UnsupportedField("object %r not supported" % header[1])
    layout, field_kind = header[2:4]
    symmetry = header[4] if len(header) > 4 else "general"
    if layout not in ("coordinate", "array"):
        raise ParseError("unknown layout %r" % layout, 1)
    if field_kind not in ("real", "integer"):
        raise UnsupportedField("field %r not supported" % field_kind)
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField("symmetry %r not supported" % symmetry)

    # the one comment rule (the banner is a comment too); the size line is the first line left
    data = ((lineno, raw, words) for lineno, raw in enumerate(lines, 1)
            if (words := raw.split()) and not words[0].startswith("%"))
    size_line, _, toks = next(data, (len(lines), "", None))
    if toks is None:
        raise ParseError("missing size line", size_line)
    coordinate = layout == "coordinate"
    fields = "'rows cols nnz'" if coordinate else "'rows cols'"
    if len(toks) != len(fields.split()):
        raise ParseError("%s size line needs %s" % (layout, fields), size_line)
    try:
        nrows, ncols, *nnz = (int(t) for t in toks)
    except ValueError:
        raise ParseError("bad integer in size line", size_line) from None
    if nrows < 0 or ncols < 0:
        raise ParseError("negative dimension %d x %d" % (nrows, ncols), size_line)
    if symmetry == "symmetric" and nrows != ncols:
        raise ParseError("symmetric matrix is not square: %d x %d" % (nrows, ncols), size_line)

    # one pass over the data lines: every entry is checked before anything is placed
    values = []
    for lineno, raw, toks in data:
        if coordinate and len(toks) != 3:
            raise ParseError("entry needs 'i j value'", lineno)
        try:
            entry = (int(toks[0]), int(toks[1]), float(toks[2])) if coordinate else float(toks[0])
        except ValueError:
            raise ParseError("bad number %r" % raw.strip(), lineno) from None
        if coordinate and not (1 <= entry[0] <= nrows and 1 <= entry[1] <= ncols):
            raise ParseError("index (%d, %d) out of range" % entry[:2], lineno)
        values.append(entry)
    if coordinate:
        expected, message = nnz[0], "declared %d entries, found %d"
    elif symmetry == "symmetric":
        expected, message = nrows * (nrows + 1) // 2, "symmetric array needs %d values, found %d"
    else:
        expected, message = nrows * ncols, "array needs %d values, found %d"
    if len(values) != expected:
        raise ParseError(message % (expected, len(values)), len(lines))
    if not coordinate and symmetry == "general":  # column-major dense values
        return np.array(values).reshape((ncols, nrows)).T
    out = np.zeros((nrows, ncols))
    if coordinate:
        for i, j, val in values:  # in file order, each mirror right after its entry
            out[i - 1, j - 1] = val
            if symmetry == "symmetric":
                out[j - 1, i - 1] = val
        return out
    # the lower triangle, column by column
    j, i = np.triu_indices(nrows)
    out[i, j] = values
    out[j, i] = values
    return out
