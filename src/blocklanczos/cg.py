"""Two block conjugate gradient variants and the trace error metric.

`hs_bcg` is the classical block CG: coupled two-term recurrences with
p x p Gram solves for the step and direction updates, plus an optional
per-iteration scaling policy for the direction block. `dr_bcg` replaces
the residual block by its orthonormal QR factor every iteration, carrying
the triangular factor separately, which keeps the inner solves well
conditioned when residual columns start to align.

Both take the operator either as a dense symmetric (n, n) array or as the
(n,) diagonal of a diagonal operator (such as the blurred spectrum of
`matrices.blurred_problem`), which is then applied without ever forming
the dense matrix. Both record the A-norm trace error against a direct
reference solution at every iteration and halt (with the partial history
preserved) when an inner solve goes numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NonFiniteOperator,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
    SingularInnerSolve,
)
from .linalg import check_symmetric, householder_qr, panel_norm, reorthogonalize, sym_norm


def _energy(v: np.ndarray, apply_a) -> float:
    """trace(v^T A v), with tiny negative values from rounding clipped to zero."""
    return max(float(np.sum(v * apply_a(v))), 0.0)


def _error_ratio(err: np.ndarray, apply_a, den: float) -> float:
    num = _energy(err, apply_a)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num) / np.sqrt(den))


def trace_error(x: np.ndarray, x_star: np.ndarray, x0: np.ndarray, a: np.ndarray) -> float:
    """Relative A-norm error aggregated over the block by traces.

    sqrt(trace((x*-x)^T A (x*-x))) / sqrt(trace((x*-x0)^T A (x*-x0)))

    Returns 1 at the initial guess and 0 at the solution. Tiny negative
    traces from rounding are clipped to zero before the square roots.
    """
    apply_a = lambda v: a @ v  # noqa: E731
    return _error_ratio(x_star - x, apply_a, _energy(x_star - x0, apply_a))


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


def _operator(a, b):
    """Matvec, norm(A), reference solution and its relative residual.

    ``a`` is a dense symmetric (n, n) array or the (n,) diagonal of a
    diagonal operator. The diagonal reference solve multiplies twice by
    1/sqrt(d), which is what the dense Cholesky solve computes on a
    diagonal matrix (its triangular solves multiply by the reciprocal
    pivot), so both forms of one operator give the same bits.
    """
    if a.shape[:1] != b.shape[:1]:
        raise ShapeMismatch("operator of shape %r, right-hand side %r" % (a.shape, b.shape))
    if a.ndim == 1:
        if not np.all(np.isfinite(a)):
            raise NonFiniteOperator("diagonal operator has NaN or infinite entries")
        if not np.all(a > 0.0):
            raise NotPositiveDefinite("diagonal operator has an entry <= 0")
        d = a[:, None]
        apply_a = lambda v: d * v  # noqa: E731
        a_norm = float(np.max(a, initial=0.0))  # the entries are positive
        r = 1.0 / np.sqrt(d)
        x_star = (b * r) * r
    else:
        check_symmetric(a)
        apply_a = lambda v: a @ v  # noqa: E731
        a_norm = sym_norm(a)
        try:
            factor = scipy.linalg.cho_factor(a, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("reference Cholesky failed: %s" % exc) from exc
        x_star = scipy.linalg.cho_solve(factor, b)
    denom = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(b - apply_a(x_star))) / denom if denom > 0.0 else 0.0
    return apply_a, a_norm, x_star, resid


def _gram_singular(gram, a_norm, block) -> bool:
    if not np.all(np.isfinite(gram)):
        return True
    svals = np.linalg.svd(gram, compute_uv=False)
    return float(svals.min()) < 1e-14 * a_norm * panel_norm(block) ** 2


def _finish(history_kwargs, apply_a, b, x):
    res = b - apply_a(x)
    history_kwargs["final_residual_norms"] = np.linalg.norm(res, axis=0)
    history_kwargs["x"] = x
    return CgHistory(**history_kwargs)


def hs_bcg(
    a: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    maxit: int | None = None,
    phi_policy=None,
) -> CgHistory:
    """Classical block CG for SPD ``a`` and block right-hand side ``b``.

    ``a`` is a dense symmetric (n, n) array or a 1-D (n,) array holding the
    diagonal of a diagonal operator; both forms of one operator give the
    same history bit for bit, and the diagonal one costs O(n p) per matvec.

    phi_policy, when given, is a callable mapping the iteration index k
    (0-based, 0 for the initial direction block) to an invertible p x p
    scaling applied to the new direction block; None means identity
    throughout.

    A numerically singular inner Gram system (smallest singular value of
    p^T A p below 1e-14 * norm(a) * norm(p)^2, or a failed Cholesky of a
    residual Gram matrix) halts the run at the current iterate; the
    history is returned with ``failure`` set. SingularInnerSolve is raised
    only when not even one iteration could run. A non-square, non-finite
    or asymmetric dense ``a`` raises ShapeMismatch, NonFiniteOperator or
    NotSymmetric, and one without a Cholesky factor NotPositiveDefinite.
    A diagonal ``a`` with a NaN or infinite entry raises NonFiniteOperator,
    and one with an entry <= 0 NotPositiveDefinite. A ``b`` whose row
    count differs from the operator's size raises ShapeMismatch.
    """
    apply_a, a_norm, x_star, ref_residual = _operator(a, b)
    n = a.shape[0]
    p = b.shape[1]
    if x0 is None:
        x0 = np.zeros((n, p))
    if maxit is None:
        maxit = n
    if phi_policy is None:
        phi_policy = lambda k: np.eye(p)  # noqa: E731

    base = dict(variant="hs", exact_mode=False, ref_residual=ref_residual)

    x = x0.copy()
    r = b - apply_a(x)
    phi_prev = phi_policy(0)
    p_dir = r @ phi_prev
    den = _energy(x_star - x0, apply_a)
    errors = [_error_ratio(x_star - x, apply_a, den)]

    failure = None
    for k in range(1, maxit + 1):
        if not np.all(np.isfinite(p_dir)) or float(np.max(np.abs(p_dir))) > 1e150:
            failure = "direction block diverged at iteration %d" % k
            break
        ap = apply_a(p_dir)
        gram = p_dir.T @ ap
        gram = 0.5 * (gram + gram.T)
        if _gram_singular(gram, a_norm, p_dir):
            failure = "singular direction Gram block at iteration %d" % k
            break
        rr_prev = r.T @ r
        try:
            gram_factor = scipy.linalg.cho_factor(gram, lower=True)
            gamma = scipy.linalg.cho_solve(gram_factor, phi_prev.T @ rr_prev)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            failure = "singular inner solve at iteration %d" % k
            break
        x = x + p_dir @ gamma
        r = r - ap @ gamma
        errors.append(_error_ratio(x_star - x, apply_a, den))
        try:
            rr_factor = scipy.linalg.cho_factor(0.5 * (rr_prev + rr_prev.T), lower=True)
            delta = np.linalg.solve(phi_prev, scipy.linalg.cho_solve(rr_factor, r.T @ r))
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            failure = "singular residual Gram block at iteration %d" % k
            break
        phi_prev = phi_policy(k)
        p_dir = (r + p_dir @ delta) @ phi_prev

    if failure is not None and len(errors) == 1:
        raise SingularInnerSolve(failure)
    base.update(errors=np.array(errors), n_iter=len(errors) - 1, failure=failure)
    return _finish(base, apply_a, b, x)


def dr_bcg(
    a: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    maxit: int | None = None,
    exact_mode: bool = False,
) -> CgHistory:
    """Block CG with an orthonormalized residual basis.

    The residual block is QR-factored every iteration: the orthonormal
    factor drives the recurrence while the triangular factor accumulates
    into the step scaling. With ``exact_mode`` the new residual basis is
    reorthogonalized (two passes) against every previous one before its QR,
    an exact-arithmetic stand-in used to compare against plain runs.

    Takes ``a`` in the same two forms as `hs_bcg` (dense symmetric, or a
    1-D diagonal), with the same halting contract and typed failures.
    """
    apply_a, a_norm, x_star, ref_residual = _operator(a, b)
    n = a.shape[0]
    p = b.shape[1]
    if x0 is None:
        x0 = np.zeros((n, p))
    if maxit is None:
        maxit = n

    base = dict(variant="dr", exact_mode=exact_mode, ref_residual=ref_residual)

    x = x0.copy()
    w, sigma = householder_qr(b - apply_a(x))
    s = w.copy()
    basis = None
    cols = 0
    if exact_mode:
        basis = np.empty((n, (maxit + 1) * p))
        basis[:, :p] = w
        cols = p
    den = _energy(x_star - x0, apply_a)
    errors = [_error_ratio(x_star - x, apply_a, den)]

    failure = None
    for k in range(1, maxit + 1):
        if not np.all(np.isfinite(s)) or float(np.max(np.abs(s))) > 1e150:
            failure = "direction block diverged at iteration %d" % k
            break
        as_ = apply_a(s)
        gram = s.T @ as_
        gram = 0.5 * (gram + gram.T)
        if _gram_singular(gram, a_norm, s):
            failure = "singular direction Gram block at iteration %d" % k
            break
        try:
            gram_factor = scipy.linalg.cho_factor(gram, lower=True)
            xi = scipy.linalg.cho_solve(gram_factor, np.eye(p))
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            failure = "singular inner solve at iteration %d" % k
            break
        x = x + s @ (xi @ sigma)
        errors.append(_error_ratio(x_star - x, apply_a, den))
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

    if failure is not None and len(errors) == 1:
        raise SingularInnerSolve(failure)
    base.update(errors=np.array(errors), n_iter=len(errors) - 1, failure=failure)
    return _finish(base, apply_a, b, x)
