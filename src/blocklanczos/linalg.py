"""Dense kernels and the block tridiagonal container.

Conventions used throughout the package:

* a *block vector* is a two dimensional ndarray of shape ``(n, width)``
  holding ``width`` columns of length ``n``; width 0 means the block has
  deflated away entirely,
* every norm written ``norm(...)`` is the spectral (2-) norm,
* all computation is float64 and deterministic for fixed inputs.

The kernels wrap LAPACK through numpy and scipy and add the conventions the
rest of the package relies on: QR with a nonnegative triangular diagonal, an
eigensolver that symmetrizes its input and takes a `BlockTridiagonal` in its
block form (solved in band storage, never densified), and an SVD-based
truncation with an explicit rank rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    NonFiniteOperator,
    NotSymmetric,
    RankDeficient,
    ShapeMismatch,
)


def panel_norm(x: np.ndarray) -> float:
    """Spectral norm of a matrix or block vector (0.0 for empty input)."""
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def sym_norm(a: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix via its eigenvalues.

    Much cheaper than a full SVD for the sizes this package works at, and
    exact for symmetric input.
    """
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def householder_qr(m: np.ndarray, rank_tol: float = 1e-12):
    """Thin QR of a block vector with a sign-normalized triangular factor.

    Parameters
    ----------
    m : ndarray, shape (n, width)
        Block to orthonormalize, width >= 1, width <= n.
    rank_tol : float
        Relative threshold: the factorization is rejected when the smallest
        diagonal entry of ``r`` falls below ``rank_tol * norm(m)``.

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
        If ``m`` is numerically rank deficient under ``rank_tol``. Callers
        that expect deflation catch this and switch to `truncated_svd`.
    """
    if m.ndim != 2:
        raise ShapeMismatch("expected a 2-d block, got ndim=%d" % m.ndim)
    n, width = m.shape
    if width < 1 or width > n:
        raise ShapeMismatch("block of shape (%d, %d) cannot be orthonormalized" % (n, width))
    q, r = qr_unchecked(m)
    _check_rank(m, r, rank_tol)
    return q, r


def _check_rank(m: np.ndarray, r: np.ndarray, rank_tol: float = 1e-12):
    """The acceptance test of `householder_qr` on ``m`` and its triangular
    factor ``r``: RankDeficient when the smallest diagonal entry of ``r``
    falls below ``rank_tol * norm(m)``."""
    smallest = float(np.min(np.diag(r)))
    # norm(m) <= its Frobenius norm, so clearing the Frobenius threshold
    # (with a margin for the rounding of either norm) accepts without the
    # SVD; everything else gets the exact spectral test
    frob = float(np.linalg.norm(m))
    if frob > 0.0 and smallest >= rank_tol * frob * (1.0 + 1e-12):
        return
    scale = panel_norm(m)
    if scale == 0.0 or smallest < rank_tol * scale:
        raise RankDeficient("smallest R diagonal %.3e below %.3e" % (smallest, rank_tol * scale))


def qr_unchecked(m: np.ndarray):
    """Thin QR with the same sign convention but no rank check.

    Used where a possibly tiny block still needs a triangular factor whose
    norm reports the size of the block (natural termination).
    """
    q, r = np.linalg.qr(m, mode="reduced")
    # flip signs so diag(r) >= 0 (deterministic), in place: copying a square q costs n x n
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q *= signs
    r *= signs[:, None]
    return q, r


def check_symmetric(a: np.ndarray):
    """Raise ShapeMismatch, NonFiniteOperator or NotSymmetric unless ``a``
    is square, finite and symmetric to 1e-12 relative."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("operator must be square, got %r" % (a.shape,))
    scale = float(np.linalg.norm(a))
    if not np.isfinite(scale):
        raise NonFiniteOperator("operator norm is %r: NaN or infinite entries, or overflow" % scale)
    if scale > 0.0 and float(np.linalg.norm(a - a.T)) > 1e-12 * scale:
        raise NotSymmetric("operator asymmetry above 1e-12 relative")


def sym_eig(t: np.ndarray | BlockTridiagonal):
    """Eigendecomposition of a (nearly) symmetric matrix.

    ``t`` is a square ndarray or a `BlockTridiagonal`. Either way the
    matrix is symmetrized as ``(t + t.T)/2`` before the solve, so tiny
    asymmetry from accumulated roundoff is harmless. The block form is
    solved in LAPACK upper band storage (``scipy.linalg.eig_banded``),
    filled straight from the blocks with the bandwidth
    ``max(s_j + s_{j+1}) - 1`` of its block sizes; it never builds the
    dense matrix. Eigenvalues come back ascending with orthonormal
    eigenvectors as columns.

    Raises ShapeMismatch on a non-square array or mis-chained blocks,
    NonFiniteOperator on a NaN or infinite entry (LAPACK would return NaN
    eigenpairs) and ConvergenceFailure when LAPACK fails.
    """
    banded = isinstance(t, BlockTridiagonal)
    if banded:
        t.check_structure()
        work = _upper_band(t)
    elif t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ShapeMismatch("sym_eig needs a square matrix, got %r" % (t.shape,))
    else:
        work = t
    if not np.all(np.isfinite(work)):
        raise NonFiniteOperator("sym_eig input has NaN or infinite entries")
    try:
        if banded:
            return scipy.linalg.eig_banded(work)
        return np.linalg.eigh(0.5 * (work + work.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _upper_band(t: BlockTridiagonal) -> np.ndarray:
    """The symmetrized block form in LAPACK upper band storage.

    Entry (i, j), i <= j, of ``0.5 * (t + t.T)`` lands in
    ``band[u + i - j, j]``, u the bandwidth. Diagonal block j fills its
    own columns with its symmetrized upper triangle, and ``betas[j-1].T``
    sits above it in the same columns. Couplings are generally full (the
    continuation's come from an SVD), so u is the widest pair of
    neighbouring blocks less one.
    """
    sizes = t.block_sizes
    u = max([s0 + s1 for s0, s1 in zip(sizes, sizes[1:])] + sizes[:1], default=1) - 1
    # rows past u take the lower triangles of the diagonal blocks, so each
    # block is written whole; they are dropped on return
    band = np.zeros((2 * u + 1, t.dim))
    starts = np.cumsum([0] + sizes)
    # sizes never grow, so blocks of one shape come in runs, and each run
    # is written with one assignment
    j = 0
    for s, run in itertools.groupby(sizes):
        m = len(list(run))
        alphas = np.stack(t.alphas[j : j + m])
        r, c = np.indices((s, s)).reshape(2, -1)
        sym = 0.5 * (alphas + alphas.transpose(0, 2, 1))
        band[u + r - c, starts[j : j + m, None] + c] = sym.reshape(m, -1)
        j += m
    j = 1
    for (h, s), run in itertools.groupby(zip(sizes, sizes[1:])):
        m = len(list(run))
        betas_t = np.stack(t.betas[j - 1 : j - 1 + m]).transpose(0, 2, 1)
        r, c = np.indices((h, s)).reshape(2, -1)
        band[u - h + r - c, starts[j : j + m, None] + c] = betas_t.reshape(m, -1)
        j += m
    return band[: u + 1]


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
    """
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    n, width = w.shape
    if width == 0:
        return np.zeros((n, 0)), np.zeros((0, 0)), 0
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s >= tol))
    return u[:, :rank], s[:rank, None] * vt[:rank], rank


def stack_panels(panels) -> np.ndarray:
    """Concatenate a sequence of block vectors (a list, or a stack such as
    `LanczosRun.panels`) into one (n, total) matrix."""
    return np.hstack(panels) if len(panels) else np.zeros((0, 0))


def reorthogonalize(w: np.ndarray, basis: np.ndarray, passes: int = 2) -> np.ndarray:
    """Remove the components of ``w`` along an orthonormal ``basis``.

    Two passes of classical block Gram-Schmidt; the second pass mops up the
    first-pass rounding so the result is orthogonal to the basis to working
    precision even when ``w`` nearly lies inside it.
    """
    out = w
    for _ in range(passes):
        out = out - basis @ (basis.T @ out)
    return out


@dataclass
class BlockTridiagonal:
    """Symmetric block tridiagonal matrix in factored (block list) form.

    ``alphas[j]`` is the j-th diagonal block (square, size s_j) and
    ``betas[j]`` couples block columns j and j+1: it sits below the
    diagonal, its transpose above. Block sizes may shrink down the diagonal
    (deflation) but never grow, so ``betas[j]`` has shape
    ``(s_{j+1}, s_j)``.

    Diagonal blocks are stored as computed; processes in this package keep
    them symmetric to roundoff (the continuation process's first extension
    block can carry an asymmetry at the size of its recorded perturbation,
    which `sym_eig` absorbs).
    """

    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    @property
    def block_sizes(self):
        return [a.shape[0] for a in self.alphas]

    @property
    def dim(self) -> int:
        return int(sum(self.block_sizes))

    @property
    def n_blocks(self) -> int:
        return len(self.alphas)

    def check_structure(self):
        """Raise ShapeMismatch unless the block shapes chain correctly."""
        sizes = []
        for j, a in enumerate(self.alphas):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeMismatch("diagonal block %d is not square: %r" % (j, a.shape))
            sizes.append(a.shape[0])
        if len(self.betas) != max(len(sizes) - 1, 0):
            raise ShapeMismatch(
                "%d diagonal blocks need %d couplings, got %d"
                % (len(sizes), max(len(sizes) - 1, 0), len(self.betas))
            )
        for j, b in enumerate(self.betas):
            if b.shape != (sizes[j + 1], sizes[j]):
                raise ShapeMismatch(
                    "coupling %d has shape %r, expected (%d, %d)"
                    % (j, b.shape, sizes[j + 1], sizes[j])
                )
            if sizes[j + 1] > sizes[j]:
                raise ShapeMismatch("block sizes must not grow: %r" % (sizes,))


def densify(t: BlockTridiagonal) -> np.ndarray:
    """Expand the block form into a dense matrix.

    The result is symmetric up to the symmetry of the stored diagonal
    blocks; couplings are placed as ``beta`` below and ``beta.T`` above the
    diagonal.
    """
    t.check_structure()
    sizes = t.block_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    dim = int(offsets[-1])
    out = np.zeros((dim, dim))
    for j, a in enumerate(t.alphas):
        lo, hi = offsets[j], offsets[j + 1]
        out[lo:hi, lo:hi] = a
    for j, b in enumerate(t.betas):
        lo, mid, hi = offsets[j], offsets[j + 1], offsets[j + 2]
        out[mid:hi, lo:mid] = b
        out[lo:mid, mid:hi] = b.T
    return out
