"""Two block conjugate gradient variants and the trace error metric.

`hs_bcg` is the classical block CG: coupled two-term recurrences with
p x p Gram solves for the step and direction updates. `dr_bcg` replaces
the residual block by its orthonormal QR factor every iteration, carrying
the triangular factor separately, which keeps the inner solves well
conditioned when residual columns start to align.

Both take the operator as a dense symmetric (n, n) array, as the (n,)
diagonal of a diagonal operator (such as the blurred spectrum of
`matrices.blurred_problem`), applied without ever forming the dense
matrix, or as a `linalg.Operator` wrapping either, whose check, norm
and factor both then share. Every solve, with A for the reference
solution and with each p x p Gram block, multiplies by an inverse
Cholesky factor from `linalg.inverse_cholesky`. Both record the A-norm
trace error and halt (with the partial history preserved) when an inner
solve goes numerically singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ShapeMismatch, SingularInnerSolve
from .linalg import (Operator, as_operator, check_finite, check_integer, householder_qr,
                     inverse_cholesky, reorthogonalize)


def _energy(v: np.ndarray, a) -> float:
    """trace(v^T A v), with tiny negative values from rounding clipped to zero."""
    return max(float(np.sum(v * (a @ v))), 0.0)


def _error_ratio(err: np.ndarray, a, den: float) -> float:
    num = _energy(err, a)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return math.sqrt(num) / math.sqrt(den)


def trace_error(x: np.ndarray, x_star: np.ndarray, x0: np.ndarray, a) -> float:
    """Relative A-norm error aggregated over the block by traces.

    sqrt(trace((x*-x)^T A (x*-x))) / sqrt(trace((x*-x0)^T A (x*-x0)))

    ``a`` is an Operator, a dense symmetric array or the 1-D diagonal of a
    diagonal operator, as for `hs_bcg`. Returns 1 at the initial guess and
    0 at the solution. Tiny negative traces from rounding are clipped to
    zero before the square roots.
    """
    a = as_operator(a)
    return _error_ratio(x_star - x, a, _energy(x_star - x0, a))


@dataclass
class CgHistory:
    """Record of a block CG run.

    errors[k] is the trace error after k iterations (errors[0] belongs to
    x0). ref_residual reports the relative residual of the direct
    reference solution itself; the error curve cannot be trusted below
    that level. failure is None for a clean run, otherwise a short reason
    for halting early.
    """

    variant: str
    exact_mode: bool
    errors: np.ndarray
    final_residual_norms: np.ndarray
    x: np.ndarray
    n_iter: int
    ref_residual: float
    failure: str | None = None

    def first_below(self, level: float):
        """Smallest iteration count reaching the given trace error, or None."""
        hits = np.nonzero(self.errors <= level)[0]
        return int(hits[0]) if hits.size else None


def _prologue(a, b, x0, maxit):
    """What both variants start from: the checked operator, the reference
    solution and its relative residual, and x0 and maxit with their
    defaults (zeros, and the dimension) filled in."""
    if maxit is not None:
        check_integer("maxit", maxit, 0)
    op = as_operator(a)
    if b.ndim != 2 or b.shape[0] != op.shape[0]:
        raise ShapeMismatch("operator of shape %r, right-hand side %r" % (op.shape, b.shape))
    if b.shape[1] == 0:
        raise ShapeMismatch("right-hand side %r has no columns" % (b.shape,))
    if x0 is None:
        x0 = np.zeros(b.shape)
    elif x0.shape != b.shape:
        raise ShapeMismatch("initial guess %r, right-hand side %r" % (x0.shape, b.shape))
    check_finite(b, "right-hand side")
    check_finite(x0, "initial guess")
    x_star = op.solve(b)
    denom = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(b - op @ x_star)) / denom if denom > 0.0 else 0.0
    return op, x_star, resid, x0, op.shape[0] if maxit is None else maxit


def _direction_gram(a, s, k):
    """Apply ``a`` to the direction block s and factor its Gram block.

    Returns ``(a @ s, f, None)`` with inv(s^T A s) = f^T f, or
    ``(None, None, reason)`` when iteration k must halt: s diverged, the
    symmetrized s^T A s is not finite or its smallest singular value is
    below 1e-14 * norm(a) * norm(s)^2, or its Cholesky factorization fails.
    The factor comes first: as lambda_min(s^T A s) >= 1/||f||_F^2 and norm(s)
    <= ||s||_F, ||f||_F^2 ||s||_F^2 norm(a) <= 1e10 clears that rule by 10^4.
    """
    if not float(np.max(np.abs(s))) <= 1e150:  # NaN too
        return None, None, "direction block diverged at iteration %d" % k
    as_ = a @ s
    gram = s.T @ as_
    gram = 0.5 * (gram + gram.T)
    try:
        f = inverse_cholesky(gram)
        if float(np.vdot(f, f)) * float(np.vdot(s, s)) * a.norm <= 1e10:
            return as_, f, None
    except np.linalg.LinAlgError:
        f = None
    # norm(s)^2 from the p x p s^T s, not an n x p SVD; a NaN threshold halts too
    if not (np.all(np.isfinite(gram)) and float(np.linalg.svd(gram, compute_uv=False).min())
            >= 1e-14 * a.norm * np.linalg.eigvalsh(s.T @ s)[-1]):
        return None, None, "singular direction Gram block at iteration %d" % k
    if f is None:
        return None, None, "singular inner solve at iteration %d" % k
    return as_, f, None


def _finish(a, b, x, errors, failure, **fields):
    """The history of a stopped run; SingularInnerSolve if it never stepped."""
    if failure is not None and len(errors) == 1:
        raise SingularInnerSolve(failure)
    return CgHistory(errors=np.array(errors), n_iter=len(errors) - 1, failure=failure, x=x,
                     final_residual_norms=np.linalg.norm(b - a @ x, axis=0), **fields)


def hs_bcg(
    a: np.ndarray | Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    maxit: int | None = None,
) -> CgHistory:
    """Classical block CG for SPD ``a`` and block right-hand side ``b``.

    ``a`` is a dense symmetric (n, n) array, a 1-D (n,) array holding the
    diagonal of a diagonal operator, or an `Operator`; both array forms of
    one operator give the same history bit for bit, and the diagonal one
    costs O(n p) per matvec.

    A numerically singular inner Gram system (smallest singular value of
    p^T A p below 1e-14 * norm(a) * norm(p)^2, or a failed Cholesky of a
    residual Gram matrix) halts the run at the current iterate; the
    history is returned with ``failure`` set. SingularInnerSolve is raised
    only when not even one iteration could run. ``a`` fails as an
    `Operator` does (ShapeMismatch, NonFiniteOperator, NotSymmetric, and
    NotPositiveDefinite without a Cholesky factor); a ``b`` whose row
    count differs from its size or that has no columns, or an ``x0`` of
    another shape than ``b``, raises ShapeMismatch, a NaN or infinite
    entry in ``b`` or ``x0`` raises NonFiniteOperator, and a ``maxit``
    that is negative or not an integer (Python or numpy) raises ValueError
    (0 returns the history of x0 alone).
    """
    a, x_star, ref_residual, x0, maxit = _prologue(a, b, x0, maxit)

    x = x0.copy()
    r = b - a @ x
    p_dir, rr = r, r.T @ r
    den = _energy(x_star - x0, a)
    errors = [_error_ratio(x_star - x, a, den)]

    failure = None
    for k in range(1, maxit + 1):
        ap, f, failure = _direction_gram(a, p_dir, k)
        if failure is not None:
            break
        gamma = f.T @ (f @ rr)
        x = x + p_dir @ gamma
        r = r - ap @ gamma
        errors.append(_error_ratio(x_star - x, a, den))
        try:
            f = inverse_cholesky(0.5 * (rr + rr.T))
        except np.linalg.LinAlgError:
            failure = "singular residual Gram block at iteration %d" % k
            break
        p_dir = r + p_dir @ (f.T @ (f @ (rr := r.T @ r)))  # rr: the next step's r^T r

    return _finish(a, b, x, errors, failure, variant="hs", exact_mode=False,
                   ref_residual=ref_residual)


def dr_bcg(
    a: np.ndarray | Operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    maxit: int | None = None,
    exact_mode: bool = False,
) -> CgHistory:
    """Block CG with an orthonormalized residual basis.

    The residual block is QR-factored every iteration: the orthonormal
    factor drives the recurrence while the triangular factor accumulates
    into the step scaling. With ``exact_mode`` the new residual basis is
    reorthogonalized against every previous one (`reorthogonalize`) before
    its QR, an exact-arithmetic stand-in used to compare against plain runs.

    Takes ``a`` in the same forms as `hs_bcg` (dense symmetric, a 1-D
    diagonal, or an `Operator`), with the same halting contract and typed
    failures, a negative or non-integer ``maxit`` raising ValueError too.
    """
    a, x_star, ref_residual, x0, maxit = _prologue(a, b, x0, maxit)
    n, p = b.shape

    x = x0.copy()
    w, sigma = householder_qr(b - a @ x)
    s = w.copy()
    cols = p
    if exact_mode:
        # the run stops before the basis outgrows R^n, whatever maxit is
        basis = np.empty((n, min(maxit + 1, n // p) * p))
        basis[:, :p] = w
    den = _energy(x_star - x0, a)
    errors = [_error_ratio(x_star - x, a, den)]

    failure = None
    for k in range(1, maxit + 1):
        as_, f, failure = _direction_gram(a, s, k)
        if failure is not None:
            break
        xi = f.T @ f
        x = x + s @ (xi @ sigma)
        errors.append(_error_ratio(x_star - x, a, den))
        if exact_mode and cols + p > n:
            # the reorthogonalized basis spans all of R^n; the method has
            # nothing left to search and further steps would be noise
            failure = "search space exhausted at iteration %d" % k
            break
        wt = w - as_ @ xi
        if exact_mode:
            wt = reorthogonalize(wt, basis[:, :cols])
        try:
            w_new, zeta = householder_qr(wt)
        except RankDeficient:
            failure = "residual basis closed at iteration %d" % k
            break
        s = w_new + s @ zeta.T
        sigma = zeta @ sigma
        w = w_new
        if exact_mode:
            basis[:, cols : cols + p] = w
            cols += p

    return _finish(a, b, x, errors, failure, variant="dr", exact_mode=exact_mode,
                   ref_residual=ref_residual)
