"""Extending a finite-precision run into an exactly orthonormal model.

A plain block Lanczos run in floating point produces panels that drift
away from orthogonality, yet its computed block tridiagonal T_k still
behaves like an exact run on a nearby problem. The machinery here makes
that statement concrete and measurable:

1. pick the Ritz vectors of T_k that have not converged yet and
   orthonormalize them (`select_ritz_vectors`, through `build_wk`); the
   resulting `Selection` is all that the later stages read of this step,
2. continue the three-term recurrence of the run from its panels v_{k-1}
   and v_k, but orthogonalizing every new panel against the selected
   basis and everything generated since (`continuation_run`, which takes
   the operator, panels, blocks and residual norms from the run); rank
   lost along the way is removed by an SVD cutoff, and the recurrence
   closes with a zero trailing coupling after finitely many steps, since
   each step either adds an orthonormal column or closes,
3. append the new blocks to T_k of the run (`assemble_tn`), giving a
   model matrix T_N that an EXACT run on A would produce under column
   perturbations no larger than the recorded epsilon2 * norm(A),
4. split the recorded perturbations into the few structural terms that
   control their size (`perturbation_decomposition`), each of which can be
   monitored against the selection threshold.

`continue_prefix` runs steps 1, 2 and 4 at one prefix of a run. Every
continuation step comes from one lazy loop, which `continuation_run`
drains. The monitored terms need only its first step (`monitored_terms`),
so `prefix_terms` takes that step alone and does not continue to closure.

Every panel the process discards is kept (the h panels) so the model's
backward error is measured, not estimated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionUnsatisfiable, CapReached, EmptySelection,
                     NearDependentRitzVectors, ShapeMismatch)
from .lanczos import BREAKDOWN_TOL, LanczosRun, ritz_analysis
from .linalg import BlockTridiagonal, panel_norm, qr_unchecked, reorthogonalize, truncated_svd


@dataclass
class Selection:
    """The protected basis at one prefix k of a run.

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
    """

    threshold: float
    indices: np.ndarray
    s_m: np.ndarray
    w_k: np.ndarray
    r_k: np.ndarray
    rho_k: float

    @property
    def m(self) -> int:
        return int(self.indices.size)


def select_ritz_vectors(run: LanczosRun, k: int, mu: float) -> Selection:
    """Keep the Ritz pairs of T_k whose residual bound exceeds
    mu * norm(A) and orthonormalize their Ritz vectors.

    Raises EmptySelection when nothing clears the threshold (mu too
    large, or every pair converged), NearDependentRitzVectors from
    `build_wk`.
    """
    if not mu > 0.0:  # also rejects NaN
        raise ValueError("mu must be > 0")
    ritz = ritz_analysis(run, k)
    threshold = mu * run.a.norm
    indices = np.nonzero(ritz.deltas > threshold)[0]
    if indices.size == 0:
        raise EmptySelection("no Ritz pair has delta > %.3e (max delta %.3e)"
                             % (threshold, ritz.deltas.max()))
    # all Ritz vectors first, then the kept columns: the product of the
    # kept columns alone rounds differently
    z = (run.basis[:, : k * run.width] @ ritz.s)[:, indices]
    return Selection(threshold, indices, ritz.s[:, indices], *build_wk(z))


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
    """Everything the continuation produced.

    q_panels    the new orthonormal panels q_{k+1}, q_{k+2}, ...
    alphas      diagonal blocks alpha_{k+1}, ... (one per panel); stored
                exactly as the closed-form coefficients produce them, so
                the first one can carry an asymmetry at the size of the
                recorded perturbations
    betas       couplings beta_{k+1}, ... (beta_{k+1} bridges the last
                finite-precision panel to q_{k+1})
    h_panels    the removed components per step, h panel j being the
                difference between the raw three-term panel and its kept
                rank part; the LAST entry belongs to the closing step
                whose kept rank is zero
    h_norms     spectral norms of h_panels
    epsilon2    max of the run's residual norms of steps 1..k and all h
                norms, divided by norm(A): the backward-error level of the
                assembled model
    """

    q_panels: list
    alphas: list
    betas: list
    h_panels: list
    h_norms: list
    epsilon2: float

    @property
    def n_steps(self) -> int:
        return len(self.h_norms)

    @property
    def widths(self):
        return [q.shape[1] for q in self.q_panels]


def _continuation_steps(run: LanczosRun, k: int, w_k: np.ndarray):
    """The steps of the continuation at prefix k, one per ``next``.

    Step 1 replays step k of the run from v_{k-1}, v_k, alpha_k and
    beta_k (no trailing term for k = 1); every later step is a three-term
    step on the new panels. Each raw panel is reorthogonalized against
    w_k and all panels kept so far (`reorthogonalize`), and its kept part
    comes from an SVD cut at BREAKDOWN_TOL * norm(A), the run's breakdown
    level. The step yields ``(alpha, u_t, b_new, h_panel)``: its diagonal
    block (None at step 1, whose block is alpha_k of the run), the new
    panel, its coupling and the removed difference ``raw - u_t @ b_new``.
    The steps end after the first one that keeps rank zero.

    Raises AssumptionUnsatisfiable for norm(A) = 0, which leaves the cut
    without a scale, and CapReached before the basis would pass n columns.
    """
    if not 1 <= k <= run.n_steps:
        raise ValueError("k must be in [1, %d], got %d" % (run.n_steps, k))
    a = run.a
    if a.norm == 0.0:
        raise AssumptionUnsatisfiable("norm(A) = 0 leaves the rank cut without a scale")
    n, cols, cut = a.shape[0], w_k.shape[1], BREAKDOWN_TOL * a.norm
    # room for every panel the basis can take; BLAS rounds against a
    # strided view of w_k differently from a contiguous one, so this
    # layout fixes the last bits of every output built on step 1
    basis = np.empty((n, cols + n))
    basis[:, :cols] = w_k
    q, alpha = run.panels[k - 1], run.t.alphas[k - 1]
    trail = run.panels[k - 2] @ run.t.betas[k - 2].T if k >= 2 else 0.0
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


def continuation_run(run: LanczosRun, k: int, w_k: np.ndarray) -> ContinuationResult:
    """Run the recurrence of ``run`` past step k against the protected
    basis w_k until a step keeps rank zero.

    Step 1 replays step k of the run but removes every component along
    w_k; later steps are plain three-term steps on the new panels (see
    `_continuation_steps`), each cut at the run's breakdown level
    BREAKDOWN_TOL * norm(A). The discarded difference of each step is
    recorded as its h panel. The reported epsilon2 covers the whole
    model: the run's residual norms of steps 1..k and every h norm.

    Raises ValueError for k outside [1, run.n_steps],
    AssumptionUnsatisfiable for norm(A) = 0, and CapReached if the basis
    would outgrow the dimension n.
    """
    alphas, q_panels, betas, h_panels = map(list, zip(*_continuation_steps(run, k, w_k)))
    h_norms = [panel_norm(h) for h in h_panels]
    epsilon2 = float(max([*run.diagnostics.delta_v_norm[:k], *h_norms]) / run.a.norm)
    # the closing step adds no panel, and step 1 no diagonal block
    return ContinuationResult(q_panels[:-1], alphas[1:], betas[:-1], h_panels, h_norms, epsilon2)


def assemble_tn(run: LanczosRun, k: int, cont: ContinuationResult) -> BlockTridiagonal:
    """Append the continuation at prefix k to T_k of ``run``, giving the
    model matrix T_N.

    The first continuation coupling bridges block k and the first
    continuation block. With no continuation panels the result is just a
    copy of T_k.
    """
    if not 1 <= k <= run.n_steps:
        raise ValueError("k must be in [1, %d], got %d" % (run.n_steps, k))
    alphas = [x.copy() for x in run.t.alphas[:k] + cont.alphas]
    betas = [x.copy() for x in run.t.betas[: k - 1] + cont.betas]
    t_n = BlockTridiagonal(alphas, betas)
    t_n.check_structure()
    return t_n


@dataclass
class DecompositionReport:
    """Structural split of the recorded continuation perturbations.

    term21a     overlap of the protected basis with the next
                finite-precision panel, norm(w_k^T v_{k+1} beta_fp)
    term21b     the orthogonality-defect term
                norm(beta_{k+1} r_def^T s_m inv(r_k)) built from the
                overlap of v_k with all earlier panels
    term22      how far v_k beta_{k+1}^T sticks out of the protected
                basis, norm((I - w_k w_k^T) v_k beta_{k+1}^T)
    delta_norms the per-step remainders once the closed-form structural
                parts are subtracted from the measured h panels; these
                sit at roundoff level when the model is healthy
    """

    term21a: float
    term21b: float
    term22: float
    delta_norms: list


def _closed_form_inputs(run: LanczosRun, k: int):
    """What the closed forms at prefix k read from the run.

    Returns ``(v_k, r_defect, fp_trail)``: the last prefix panel, its
    overlap with all earlier panels (padded to k*p rows), and the next
    finite-precision panel times its coupling (None when a terminated run
    has no next panel).
    """
    p = run.width
    v_k = run.panels[k - 1]
    r_defect = np.vstack([run.basis[:, : (k - 1) * p].T @ v_k, np.zeros((p, p))])
    beta_fp = run.t.betas[k - 1] if k < run.n_steps else run.beta_next
    has_next = k < run.n_steps or not run.terminated
    fp_trail = run.panels[k] @ beta_fp if has_next else None
    return v_k, r_defect, fp_trail


def monitored_terms(run: LanczosRun, k: int, selection: Selection, beta_c: np.ndarray | None):
    """The three monitored terms ``(term21a, term21b, term22)`` at prefix k.

    They come from the closed forms of the first two continuation steps,
    so besides the run and the selection they need only beta_c, the
    coupling beta_{k+1} kept by continuation step 1; pass None when step 1
    kept rank zero, which makes term21b and term22 zero.
    See `DecompositionReport` for what each term measures.
    """
    return _terms(_closed_form_inputs(run, k), selection, beta_c)


def _terms(inputs, selection, beta_c):
    """`monitored_terms` from already gathered `_closed_form_inputs`."""
    v_k, r_defect, fp_trail = inputs
    w_k = selection.w_k
    term21a = panel_norm(w_k.T @ fp_trail) if fp_trail is not None else 0.0
    if beta_c is None:
        return term21a, 0.0, 0.0
    m_r = np.linalg.solve(selection.r_k.T, (r_defect.T @ selection.s_m).T).T
    vb = v_k @ beta_c.T
    return term21a, panel_norm(beta_c @ m_r), panel_norm(vb - w_k @ (w_k.T @ vb))


def perturbation_decomposition(
    run: LanczosRun, k: int, selection: Selection, cont: ContinuationResult
) -> DecompositionReport:
    """Measure the structural terms behind the recorded h panels.

    The first two steps of the continuation admit closed forms: the step-k
    perturbation is the projection of the next finite-precision panel onto
    the protected basis, and the next one is controlled by the overlap of
    v_k with the earlier panels pushed through the selected eigenvector
    block and the inverse basis factor. Later steps reduce to a rank-one
    style coupling through q_{k+1}. Everything left after subtracting
    those forms is returned in delta_norms, next to the three monitored
    scalars (`monitored_terms`).
    """
    beta_c = cont.betas[0] if cont.betas else None
    inputs = _closed_form_inputs(run, k)
    terms = _terms(inputs, selection, beta_c)
    v_k, r_defect, fp_trail = inputs
    w_k = selection.w_k

    h = cont.h_panels
    d0 = h[0] if fp_trail is None else h[0] - w_k @ (w_k.T @ fp_trail)
    delta_norms = [panel_norm(d0)]
    if len(h) >= 2:
        g = np.linalg.solve(selection.r_k.T, selection.s_m.T @ r_defect)
        d1 = h[1] + w_k @ (g @ beta_c.T)
        delta_norms.append(panel_norm(d1))
    for j in range(2, len(h)):
        dj = h[j] - cont.q_panels[0] @ (beta_c @ (v_k.T @ cont.q_panels[j - 1]))
        delta_norms.append(panel_norm(dj))

    return DecompositionReport(*terms, delta_norms)


@dataclass
class PrefixContinuation:
    """The whole pipeline at one prefix k of a run (`continue_prefix`)."""

    selection: Selection
    cont: ContinuationResult
    report: DecompositionReport


def continue_prefix(run: LanczosRun, k: int, mu: float) -> PrefixContinuation:
    """Select at threshold mu, continue to closure and decompose, at
    prefix k of a finite-precision run, on the run's own operator.

    Raises EmptySelection, NearDependentRitzVectors or CapReached when the
    corresponding stage cannot proceed.
    """
    selection = select_ritz_vectors(run, k, mu)
    cont = continuation_run(run, k, selection.w_k)
    report = perturbation_decomposition(run, k, selection, cont)
    return PrefixContinuation(selection, cont, report)


def prefix_terms(run: LanczosRun, k: int, mu: float):
    """The selection and the monitored terms at prefix k, from
    continuation step 1 alone.

    Returns ``(selection, (term21a, term21b, term22))``, bit for bit the
    terms `continue_prefix` reports, without continuing to closure.
    Raises EmptySelection or NearDependentRitzVectors like it.
    """
    selection = select_ritz_vectors(run, k, mu)
    _, _, beta_c, _ = next(_continuation_steps(run, k, selection.w_k))
    return selection, monitored_terms(run, k, selection, beta_c if beta_c.size else None)
