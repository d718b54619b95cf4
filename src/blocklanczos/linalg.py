"""Dense kernels and the checked operator type.

Conventions used throughout the package:

* a *block vector* is a two dimensional ndarray of shape ``(n, width)``
  holding ``width`` columns of length ``n``; width 0 means the block has
  deflated away entirely,
* every norm written ``norm(...)`` is the spectral (2-) norm,
* all computation is float64 and deterministic for fixed inputs.

The kernels wrap numpy's LAPACK, the package's one linear-algebra
library, and add the conventions the rest of the package relies on: QR
with a nonnegative triangular diagonal, an eigensolver that symmetrizes
its input, an SVD-based truncation with an explicit rank rule, and the
inverse Cholesky factor behind every positive definite solve. `Operator`
is the one place that checks, norms, factors and applies the matrix A a
process runs on, dense or diagonal.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import (
    ConvergenceFailure,
    NonFiniteOperator,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    ShapeMismatch,
)

RANK_TOL = 1e-12  # relative rank threshold of householder_qr


def check_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """ValueError naming ``name`` unless ``value`` is a Python or numpy integer,
    at least ``low`` when given, and in [low, high] when ``high`` is given too."""
    if not (isinstance(value, numbers.Integral) and (high is None or low <= value <= high)):
        rule = "" if high is None else " in [%d, %d]" % (low, high)
        raise ValueError("%s must be an integer%s, got %r" % (name, rule, value))
    if low is not None and value < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, value))


def check_finite(x, what: str) -> None:
    """NonFiniteOperator naming ``what`` when ``x`` has a NaN or infinite entry."""
    if not np.all(np.isfinite(x)):
        raise NonFiniteOperator("%s has NaN or infinite entries" % what)


def panel_norm(x: np.ndarray) -> float:
    """Spectral norm (0.0 for empty input), read from the SVD ``norm(x, 2)`` runs: same bits;
    NonFiniteOperator for a NaN or infinite entry, on which LAPACK fails or returns NaN."""
    if x.size == 0:
        return 0.0
    try:
        norm = float(np.linalg.svd(x, compute_uv=False)[0])
    except np.linalg.LinAlgError:
        norm = np.nan
    if norm != norm:  # NaN
        raise NonFiniteOperator("block norm is NaN: NaN or infinite entries")
    return norm


def householder_qr(m: np.ndarray):
    """Thin QR of a block vector with a sign-normalized triangular factor.

    Parameters
    ----------
    m : ndarray, shape (n, width)
        Block to orthonormalize, width >= 1, width <= n.

    Returns
    -------
    q : ndarray, shape (n, width)
        Orthonormal columns spanning range(m).
    r : ndarray, shape (width, width)
        Upper triangular with nonnegative diagonal, ``q @ r == m`` to
        roundoff.

    Raises
    ------
    RankDeficient
        If the smallest diagonal entry of ``r`` falls below
        ``RANK_TOL * norm(m)``, RANK_TOL = 1e-12. Callers that expect
        deflation catch this and switch to `truncated_svd`.
    NonFiniteOperator
        If ``m`` has a NaN or infinite entry.
    """
    if m.ndim != 2:
        raise ShapeMismatch("expected a 2-d block, got ndim=%d" % m.ndim)
    n, width = m.shape
    if width < 1 or width > n:
        raise ShapeMismatch("block of shape (%d, %d) cannot be orthonormalized" % (n, width))
    q, r = qr_unchecked(m)
    smallest = float(r.diagonal().min())
    # norm(m) <= its Frobenius norm, so clearing the Frobenius threshold
    # (with a margin for the rounding of either norm) accepts without the
    # SVD; everything else gets the exact spectral test. A NaN or infinite
    # entry makes the Frobenius norm NaN or infinite and fails here too.
    frob = _frobenius(m)
    if 0.0 < frob < np.inf and smallest >= RANK_TOL * frob * (1.0 + 1e-12):
        return q, r
    check_finite(m, "block to orthonormalize")  # the SVD below would not converge
    scale = panel_norm(m)
    if scale == 0.0 or smallest < RANK_TOL * scale:
        raise RankDeficient("smallest R diagonal %.3e below %.3e" % (smallest, RANK_TOL * scale))
    return q, r


def qr_unchecked(m: np.ndarray):
    """Thin QR with the same sign convention but no rank check.

    Used where a possibly tiny block still needs a triangular factor whose
    norm reports the size of the block (natural termination).
    """
    q, r = np.linalg.qr(m, mode="reduced")
    # flip signs so diag(r) >= 0 (deterministic), in place: copying a square q costs n x n
    signs = np.where(r.diagonal() < 0.0, -1.0, 1.0)
    q *= signs
    r *= signs[:, None]
    return q, r


class Operator:
    """A symmetric operator A, checked once when built and applied with ``@``.

    Wraps a dense symmetric (n, n) array or the (n,) diagonal of a diagonal
    operator, which is never densified. Building one raises ShapeMismatch,
    NonFiniteOperator (NaN or infinite entries, or a norm that overflows)
    or NotSymmetric (asymmetry above 1e-12 relative). ``eigvals``
    (ascending), ``norm`` = max|eigvals| and the inverse Cholesky factor
    behind `solve` are computed on first use and shared from then on. A
    builder that knows the spectrum passes it as ``eigvals`` (shape (n,),
    finite, ascending, with 2-norm equal to A's Frobenius norm to
    10 n eps relative, else ShapeMismatch, NonFiniteOperator or
    ValueError); it is kept read-only and A is never eigensolved.

    Both forms of one operator give the same bits: a dense product with a
    diagonal matrix only adds exact zeros, LAPACK returns the sorted
    entries of a diagonal matrix as its eigenvalues, and the inverse
    Cholesky factor of a diagonal matrix is the diagonal matrix of
    1/sqrt(d), by which the diagonal solve multiplies twice.
    """

    def __init__(self, a: np.ndarray, eigvals: np.ndarray | None = None):
        a = np.asarray(a)
        self._diag = a[:, None] if a.ndim == 1 else None
        if a.ndim not in (1, 2) or a.shape[0] != a.shape[-1]:
            raise ShapeMismatch("operator must be square or 1-D, got %r" % (a.shape,))
        scale = _frobenius(a)
        if not np.isfinite(scale):
            raise NonFiniteOperator("operator norm is %r: NaN, inf or overflow" % scale)
        if a.ndim == 2 and scale > 0.0 and _frobenius(a - a.T) > 1e-12 * scale:
            raise NotSymmetric("operator asymmetry above 1e-12 relative")
        self.array, self.shape = a, (a.shape[0], a.shape[0])
        if eigvals is not None:
            eigvals = np.array(eigvals, dtype=float)
            if eigvals.shape != (a.shape[0],):
                raise ShapeMismatch("spectrum %r for size %d" % (eigvals.shape, a.shape[0]))
            check_finite(eigvals, "spectrum")
            if np.any(eigvals[1:] < eigvals[:-1]):
                raise ValueError("spectrum must be ascending")
            # an O(n) guard against a wrong or stale spectrum: sum(eigvals**2) = ||A||_F**2
            if abs(_frobenius(eigvals) - scale) > 10 * a.shape[0] * np.finfo(float).eps * scale:
                raise ValueError("spectrum does not match the operator's Frobenius norm")
            eigvals.flags.writeable = False
            self.__dict__["eigvals"] = eigvals  # the cached property's value

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.array @ v if self._diag is None else self._diag * v

    @functools.cached_property
    def eigvals(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.array) if self._diag is None else np.sort(self.array)

    @functools.cached_property
    def norm(self) -> float:
        """Spectral norm, the largest eigenvalue magnitude (0.0 when n = 0)."""
        return float(np.max(np.abs(self.eigvals), initial=0.0))

    @functools.cached_property
    def _inverse_factor(self) -> np.ndarray:
        if self._diag is not None:
            if not np.all(self._diag > 0.0):
                raise NotPositiveDefinite("diagonal operator has an entry <= 0")
            return 1.0 / np.sqrt(self._diag)
        try:
            return inverse_cholesky(self.array)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("reference Cholesky failed: %s" % exc) from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b; NotPositiveDefinite when A has no Cholesky factor."""
        f = self._inverse_factor
        return (b * f) * f if self._diag is not None else f.T @ (f @ b)


@np.errstate(over="ignore")  # a sum of squares past the float range is redone scaled by max|x|
def _frobenius(x: np.ndarray) -> float:
    norm = float(np.linalg.norm(x))
    big = float(np.max(np.abs(x))) if norm == np.inf else 0.0  # 0 unless it overflowed
    return big * float(np.linalg.norm(x / big)) if 0.0 < big < np.inf else norm


def inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """The inverse ``f`` of the lower Cholesky factor of ``a``, ``a^{-1} = f.T @ f``;
    np.linalg.LinAlgError unless ``a`` is positive definite. A NaN or
    infinite entry gives a NaN factor, so callers screen for those first."""
    return np.linalg.inv(np.linalg.cholesky(a))


def as_operator(a) -> Operator:
    """``a`` itself when it is an Operator, else a new checked one."""
    return a if isinstance(a, Operator) else Operator(a)


def sym_eig(t: np.ndarray):
    """Eigendecomposition of a (nearly) symmetric matrix.

    ``t`` is a square ndarray, such as a run's T_k or a model T_N. It is
    symmetrized as ``(t + t.T)/2`` and solved by numpy's ``eigh``, so tiny
    asymmetry from accumulated roundoff is harmless. Eigenvalues come back
    ascending with orthonormal eigenvectors as columns.

    Raises ShapeMismatch on a non-square array, NonFiniteOperator on a NaN
    or infinite entry (LAPACK would return NaN eigenpairs) and
    ConvergenceFailure when LAPACK fails.
    """
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ShapeMismatch("sym_eig needs a square matrix, got %r" % (t.shape,))
    check_finite(t, "sym_eig input")
    try:
        return np.linalg.eigh(0.5 * (t + t.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def truncated_svd(w: np.ndarray, tol: float):
    """Rank-revealing factorization ``w ~= u_t @ b`` by singular value cutoff.

    Singular values below ``tol`` (absolute) are discarded; the rank is the
    count of singular values >= tol, so ``tol=0`` keeps everything and a
    zero block maps to rank 0.

    Returns
    -------
    u_t : ndarray, shape (n, rank)
        Orthonormal columns (empty with shape (n, 0) at rank 0).
    b : ndarray, shape (rank, width)
        The retained part, ``diag(s) @ vt``; generally not triangular.
    rank : int

    ShapeMismatch unless ``w`` is 2-d, ValueError unless ``tol >= 0``.
    """
    if not tol >= 0.0:  # also rejects NaN
        raise ValueError("tol must be >= 0")
    if w.ndim != 2:
        raise ShapeMismatch("truncated_svd needs a 2-d block, got ndim=%d" % w.ndim)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s >= tol))
    return u[:, :rank], s[:rank, None] * vt[:rank], rank


def reorthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the components of ``w`` along an orthonormal ``basis``.

    One classical block Gram-Schmidt pass, and a second only when some
    column kept less than 1/sqrt(2) of its norm (Kahan-Parlett, DGKS 1976:
    twice is enough), tested per column so a nearly dependent one cannot
    hide behind the rest. A column whose squared norm overflows after the
    pass counts as not enough kept, since inf against inf tells nothing.
    The result is orthogonal to working precision. ShapeMismatch when
    ``w`` and ``basis`` have different row counts.
    """
    if w.shape[0] != basis.shape[0]:
        raise ShapeMismatch("block has %d rows, basis %d" % (w.shape[0], basis.shape[0]))
    out = w - basis @ (basis.T @ w)
    twice = any(not 0.5 * np.vdot(x, x) <= np.vdot(o, o) < np.inf for o, x in zip(out.T, w.T))
    return out - basis @ (basis.T @ out) if twice else out
