"""Extending a finite-precision run into an exactly orthonormal model.

A plain block Lanczos run in floating point produces panels that drift
away from orthogonality, yet its computed block tridiagonal T_k still
behaves like an exact run on a nearby problem. The machinery here makes
that statement concrete and measurable:

1. pick the Ritz vectors of T_k that have not converged yet and
   orthonormalize them (`continue_prefix`, through `build_wk`),
2. continue the three-term recurrence of the run from v_{k-1} and v_k,
   orthogonalizing every new panel against the selected basis and all
   panels since and cutting lost rank by an SVD, until a step keeps none
   (`continuation_run`),
3. write the blocks of each step into a copy of T_k as it arrives
   (`continuation_run` too), giving a model matrix T_N, with its basis
   [V_k, q_{k+1}, ...], that an EXACT run on A would produce under
   column perturbations no larger than the recorded epsilon2 * norm(A),
4. measure the few structural terms that control the size of the
   recorded perturbations (the record's `terms`), each of which can be
   monitored against the selection threshold, and what the closed forms
   behind them leave unexplained (its `delta_norms`).

`continue_prefix` makes step 1 at one prefix of a run and returns the
one record of that prefix, `PrefixContinuation`: it holds the run, k and
the selection, checked there, and every later stage takes it alone and
is made on first read. Every continuation step comes from one lazy loop,
which `continuation_run` drains; the record's monitored `terms` take its
first step alone.

Every panel the process discards is kept (the h panels) so the model's
backward error is measured, not estimated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import Theorem1Certificate, theorem1_certificate
from .errors import CapReached, EmptySelection, NearDependentRitzVectors, ShapeMismatch
from .lanczos import BREAKDOWN_TOL, LanczosRun, beta_after, ritz_analysis
from .linalg import panel_norm, qr_unchecked, reorthogonalize, truncated_svd


def build_wk(z_selected: np.ndarray):
    """Orthonormalize the selected Ritz vectors.

    Returns ``(w_k, r_k, rho_k)``: the orthonormal basis, the triangular
    factor with z_selected = w_k r_k, and rho_k = norm(inv(r_k)) computed
    from the singular values of r_k. A large rho_k warns that the
    selection was close to dependent and downstream bounds degrade.

    One QR, then one SVD of r_k, whose singular values are those of
    z_selected: NearDependentRitzVectors unless the smallest is above 1e-10
    times the largest (a zero block too); ShapeMismatch unless its (n, m)
    shape has 1 <= m <= n.
    """
    if not 1 <= z_selected.shape[1] <= z_selected.shape[0]:
        raise ShapeMismatch("cannot orthonormalize a Ritz block of shape %r" % (z_selected.shape,))
    w_k, r_k = qr_unchecked(z_selected)
    r_svals = np.linalg.svd(r_k, compute_uv=False)
    if not r_svals[-1] > 1e-10 * r_svals[0]:
        raise NearDependentRitzVectors("smallest singular value %.3e not above 1e-10 times "
                                       "the largest, %.3e" % (r_svals[-1], r_svals[0]))
    return w_k, r_k, 1.0 / float(r_svals[-1])


@dataclass
class ContinuationResult:
    """The model the continuation at prefix k built, and what it removed.

    tn          T_N, read-only: the (k p, k p) corner of the run's T_k, then
                each block alpha_{k+1}, ... on the diagonal with its coupling
                beta below and beta^T above (beta_{k+1} bridges v_k to
                q_{k+1}); the alphas are stored as the closed forms produce
                them, so the first can carry an asymmetry at the size of
                the recorded perturbations
    basis       the read-only [V_k, q_{k+1}, q_{k+2}, ...], one column per row
    block_sizes [p]*k followed by the widths of q_{k+1}, q_{k+2}, ...
    h_panels    the removed components per step, h panel j being the
                difference between the raw three-term panel and its kept
                rank part; the LAST entry belongs to the closing step
                whose kept rank is zero
    h_norms     spectral norms of h_panels
    epsilon2    max of the run's residual norms of steps 1..k and all h
                norms, divided by norm(A): the backward-error level of the
                assembled model
    """

    tn: np.ndarray
    basis: np.ndarray
    block_sizes: list
    h_panels: list
    h_norms: list
    epsilon2: float

    @property
    def n_steps(self) -> int:
        return len(self.h_norms)


def _continuation_steps(pc: PrefixContinuation):
    """The steps of the continuation at the record's prefix k, one per ``next``.

    Step 1 replays step k of the run from v_{k-1}, v_k, alpha_k and
    beta_k (no trailing term for k = 1); every later step is a three-term
    step on the new panels. Each raw panel is reorthogonalized against
    w_k and all panels kept so far (`reorthogonalize`), and its kept part
    comes from an SVD cut at BREAKDOWN_TOL * norm(A), the run's breakdown
    level. The step yields ``(alpha, u_t, b_new, h_panel)``: its diagonal
    block (None at step 1, whose block is alpha_k of the run), the new
    panel, its coupling and the removed difference ``raw - u_t @ b_new``.
    The steps end after the first one that keeps rank zero; CapReached is
    raised before the basis would pass n columns.
    """
    run, k = pc.run, pc.k
    a, n = run.a, run.a.shape[0]
    cols, cut, p = pc.m, BREAKDOWN_TOL * a.norm, run.width
    # CapReached stops the basis at n columns; w_k is read through a strided
    # view of this buffer, which BLAS rounds differently from a contiguous
    # copy, so the layout fixes the last bits of every output built on step 1
    basis = np.empty((n, n))
    basis[:, :cols] = pc.w_k
    rows = slice((k - 1) * p, k * p)
    q, alpha = run.panels[k - 1], run.t[rows, rows]
    trail = run.panels[k - 2] @ beta_after(run, k - 1).T if k >= 2 else 0.0
    for j in itertools.count(1):
        aq = a @ q
        if j == 2:
            # the trailing panel v_k of step 2 is not orthogonal to
            # q_{k+1}, so its share is taken out of alpha first
            alpha = q.T @ (aq - trail)
        elif j > 2:
            alpha = q.T @ aq
        raw = aq - q @ alpha - trail
        u_t, b_new, rank = truncated_svd(reorthogonalize(raw, basis[:, :cols]), cut)
        yield alpha if j > 1 else None, u_t, b_new, raw - u_t @ b_new
        if rank == 0:
            return
        if cols + rank > n:
            raise CapReached("continuation basis would reach %d columns in dimension n = %d"
                             % (cols + rank, n))
        basis[:, cols : cols + rank] = u_t
        cols += rank
        q, trail = u_t, q @ b_new.T


def continuation_run(pc: PrefixContinuation) -> ContinuationResult:
    """Run the recurrence of the record's run past its prefix k against the
    protected basis w_k until a step keeps rank zero (the steps and what
    they raise: `_continuation_steps`).

    T_N starts as the (k p, k p) corner of ``run.t`` with room for the n - m
    rows the basis can still take; each later step brings the diagonal
    block of the panel kept one step before, which goes in with the
    coupling that kept it. Each step's discarded difference is its h panel.
    epsilon2 covers the whole model: the run's residual norms of steps
    1..k and every h norm.
    """
    run, k = pc.run, pc.k
    lo = k * run.width
    tn = np.zeros((lo + run.a.shape[0] - pc.m,) * 2)
    tn[:lo, :lo] = run.t[:lo, :lo]
    panels, h_panels = [], []
    for alpha, u_t, b_new, h in _continuation_steps(pc):
        if alpha is not None:
            hi, back = lo + beta.shape[0], lo - beta.shape[1]
            tn[lo:hi, back:lo], tn[back:lo, lo:hi], tn[lo:hi, lo:hi] = beta, beta.T, alpha
            lo = hi
        panels.append(u_t)
        h_panels.append(h)
        beta = b_new
    tn, basis = tn[:lo, :lo], np.hstack([run.basis[:, : k * run.width]] + panels)
    tn.flags.writeable = basis.flags.writeable = False
    h_norms = [panel_norm(h) for h in h_panels]
    epsilon2 = float(max([*run.diagnostics.delta_v_norm[:k], *h_norms]) / run.a.norm)
    sizes = [run.width] * k + [u.shape[1] for u in panels[:-1]]  # the closing one is empty
    return ContinuationResult(tn, basis, sizes, h_panels, h_norms, epsilon2)


@dataclass
class PrefixContinuation:
    """One prefix k of a run, made by `continue_prefix`: its selection, and
    every later stage made on first read and cached.

    threshold   mu * norm(A): a Ritz pair is kept when its residual bound
                delta exceeds it, i.e. it has not converged to an
                eigenvalue yet
    indices     positions of the kept pairs among the ascending Ritz
                values of T_k
    s_m         the kept eigenvector columns of T_k
    w_k, r_k    orthonormal basis and triangular factor of the kept Ritz
                vectors, V_k s_m = w_k r_k (`build_wk`)
    rho_k       norm(inv(r_k)); large when the kept Ritz vectors were
                close to dependent
    terms       the monitored terms ``(term21a, term21b, term22)``: the
                overlap of w_k with the next finite-precision panel,
                norm(w_k^T v_{k+1} beta_fp); the orthogonality-defect term
                norm(beta_{k+1} r_def^T s_m inv(r_k)), r_def being the
                overlap of v_k with all earlier panels; and how far
                v_k beta_{k+1}^T sticks out of w_k,
                norm((I - w_k w_k^T) v_k beta_{k+1}^T). These closed forms of
                the first two continuation steps need only beta_{k+1}, the
                coupling step 1 keeps; without one the last two are zero
    cont        `continuation_run` of this record: the model T_N, its basis
                and block sizes; CapReached is raised on this read
    delta_norms what the closed forms leave of each recorded h panel, at
                roundoff level in a healthy model: the projection of the
                next finite-precision panel onto w_k at step 1, the forms
                `terms` measures at step 2, and a rank-one style coupling
                through q_{k+1} at later steps
    certificate `theorem1_certificate` at cont.epsilon2, holding T_N's
                eigenvalues and their spread around A's eigenvalues
    """

    run: LanczosRun
    k: int
    threshold: float
    indices: np.ndarray
    s_m: np.ndarray
    w_k: np.ndarray
    r_k: np.ndarray
    rho_k: float

    @property
    def m(self) -> int:
        return int(self.indices.size)

    @functools.cached_property
    def _closed_form_parts(self):
        """``(v_k, r_defect, fp_trail)``: the last prefix panel, its overlap
        with all earlier panels (padded to k*p rows), and the next
        finite-precision panel times its coupling (None after termination)."""
        run, k, p = self.run, self.k, self.run.width
        v_k = run.panels[k - 1]
        r_defect = np.vstack([run.basis[:, : (k - 1) * p].T @ v_k, np.zeros((p, p))])
        has_next = k < run.n_steps or not run.terminated
        fp_trail = run.panels[k] @ beta_after(run, k) if has_next else None
        return v_k, r_defect, fp_trail

    @functools.cached_property
    def terms(self) -> tuple:
        _, _, beta_c, _ = next(_continuation_steps(self))
        v_k, r_defect, fp_trail = self._closed_form_parts
        w_k = self.w_k
        term21a = panel_norm(w_k.T @ fp_trail) if fp_trail is not None else 0.0
        if not beta_c.size:
            return term21a, 0.0, 0.0
        m_r = np.linalg.solve(self.r_k.T, (r_defect.T @ self.s_m).T).T
        vb = v_k @ beta_c.T
        return term21a, panel_norm(beta_c @ m_r), panel_norm(vb - w_k @ (w_k.T @ vb))

    @functools.cached_property
    def cont(self) -> ContinuationResult:
        return continuation_run(self)

    @functools.cached_property
    def delta_norms(self) -> list:
        k, cont = self.k, self.cont
        edges = list(itertools.accumulate(cont.block_sizes, initial=0))
        q = [cont.basis[:, lo:hi] for lo, hi in zip(edges[k:-1], edges[k + 1 :])]
        beta_c = cont.tn[edges[k] : edges[k + 1], edges[k - 1] : edges[k]] if q else None
        v_k, r_defect, fp_trail = self._closed_form_parts
        w_k, h = self.w_k, cont.h_panels
        d = [h[0] if fp_trail is None else h[0] - w_k @ (w_k.T @ fp_trail)]
        if len(h) >= 2:
            g = np.linalg.solve(self.r_k.T, self.s_m.T @ r_defect)
            d.append(h[1] + w_k @ (g @ beta_c.T))
        d += [h[j] - q[0] @ (beta_c @ (v_k.T @ q[j - 1])) for j in range(2, len(h))]
        return [panel_norm(dj) for dj in d]

    @functools.cached_property
    def certificate(self) -> Theorem1Certificate:
        cont = self.cont
        return theorem1_certificate(cont.tn, len(cont.block_sizes), cont.basis, self.run.a,
                                    cont.epsilon2)


def continue_prefix(run: LanczosRun, k: int, mu: float) -> PrefixContinuation:
    """Keep the Ritz pairs of T_k whose residual bound exceeds
    mu * norm(A), at prefix k of a finite-precision run on the run's own
    operator, and orthonormalize their Ritz vectors; the record makes
    every later stage on first read.

    Raises ValueError unless mu is finite and > 0, EmptySelection when
    nothing clears the threshold (mu too large, or every pair converged),
    NearDependentRitzVectors from `build_wk`.
    """
    if not mu > 0.0:  # also rejects NaN
        raise ValueError("mu must be > 0")
    if np.isinf(mu):
        raise ValueError("mu must be finite")
    ritz = ritz_analysis(run, k)
    threshold = mu * run.a.norm
    indices = np.nonzero(ritz.deltas > threshold)[0]
    if indices.size == 0:
        raise EmptySelection("no Ritz pair has delta > %.3e (max delta %.3e)"
                             % (threshold, ritz.deltas.max()))
    s_m = ritz.s[:, indices]
    z = run.basis[:, : k * run.width] @ s_m
    return PrefixContinuation(run, k, threshold, indices, s_m, *build_wk(z))
