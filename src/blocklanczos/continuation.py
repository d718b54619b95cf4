"""Extending a finite-precision run into an exactly orthonormal model.

A plain block Lanczos run in floating point produces panels that drift
away from orthogonality, yet its computed block tridiagonal T_k still
behaves like an exact run on a nearby problem. The machinery here makes
that statement concrete and measurable:

1. pick the Ritz vectors of T_k that have not converged yet
   (`select_ritz_vectors`) and orthonormalize them (`build_wk`),
2. continue the three-term recurrence from the last two finite-precision
   panels, but orthogonalizing every new panel against the selected basis
   and everything generated since (`continuation_run`); rank lost along
   the way is removed by an SVD cutoff, and the recurrence closes in
   finitely many steps with a zero trailing coupling,
3. append the new blocks to T_k (`assemble_tn`), giving a model matrix
   T_N that an EXACT run on A would produce under column perturbations no
   larger than the recorded epsilon2 * norm(A),
4. split the recorded perturbations into the few structural terms that
   control their size (`perturbation_decomposition`), each of which can be
   monitored against the selection threshold.

`continue_prefix` runs steps 1-4 at one prefix of a run. The monitored
terms need only the first continuation step (`continuation_first_step`,
`monitored_terms`), so `prefix_terms` gets them without continuing to
closure.

Every panel the process discards is kept (the h panels) so the model's
backward error is measured, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CapReached, EmptySelection, NearDependentRitzVectors
from .lanczos import LanczosRun, RitzSet, ritz_analysis
from .linalg import (
    BlockTridiagonal,
    householder_qr,
    panel_norm,
    reorthogonalize,
    sym_norm,
    truncated_svd,
)


@dataclass
class SelectionReport:
    """Which Ritz pairs stay in the model basis and why.

    indices are positions into the ascending Ritz values of the analyzed
    prefix; a pair is kept when its residual bound delta exceeds
    mu * norm(A), i.e. it has not converged to an eigenvalue yet.
    rho_k (the inverse smallest singular value of the basis R factor) is
    filled in once `build_wk` has run.
    """

    mu: float
    threshold: float
    indices: np.ndarray
    m: int
    deltas_selected: np.ndarray
    deltas_unselected: np.ndarray
    rho_k: float | None = None


def select_ritz_vectors(ritz: RitzSet, mu: float, a_norm: float) -> SelectionReport:
    """Keep the Ritz pairs whose residual bound exceeds mu * a_norm.

    Raises EmptySelection when nothing clears the threshold (mu too
    large, or every pair converged).
    """
    if mu <= 0.0:
        raise ValueError("mu must be > 0")
    threshold = mu * a_norm
    mask = ritz.deltas > threshold
    indices = np.nonzero(mask)[0]
    if indices.size == 0:
        raise EmptySelection(
            "no Ritz pair has delta > %.3e (max delta %.3e)"
            % (threshold, float(ritz.deltas.max()) if ritz.deltas.size else 0.0)
        )
    return SelectionReport(
        mu=mu,
        threshold=threshold,
        indices=indices,
        m=int(indices.size),
        deltas_selected=ritz.deltas[mask].copy(),
        deltas_unselected=ritz.deltas[~mask].copy(),
    )


def build_wk(z_selected: np.ndarray):
    """Orthonormalize the selected Ritz vectors.

    Returns ``(w_k, r_k, rho_k)``: the orthonormal basis, the triangular
    factor with z_selected = w_k r_k, and rho_k = norm(inv(r_k)) computed
    from the singular values of r_k. A large rho_k warns that the
    selection was close to dependent and downstream bounds degrade.

    Raises NearDependentRitzVectors when the smallest singular value of
    z_selected is below 1e-10 times its norm.
    """
    svals = np.linalg.svd(z_selected, compute_uv=False)
    if float(svals[-1]) < 1e-10 * float(svals[0]):
        raise NearDependentRitzVectors(
            "singular value ratio %.3e below 1e-10" % (float(svals[-1] / svals[0]))
        )
    w_k, r_k = householder_qr(z_selected)
    r_svals = np.linalg.svd(r_k, compute_uv=False)
    rho_k = 1.0 / float(r_svals[-1])
    return w_k, r_k, rho_k


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
    epsilon2    max of the supplied finite-precision residual norms and
                all h norms, divided by norm(A): the backward-error level
                of the assembled model
    t_n         filled by `assemble_tn`
    term21a/term21b/term22
                filled by `perturbation_decomposition`
    """

    q_panels: list
    alphas: list
    betas: list
    h_panels: list
    h_norms: list
    epsilon2: float
    t_n: BlockTridiagonal | None = None
    term21a: float | None = None
    term21b: float | None = None
    term22: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.h_norms)

    @property
    def widths(self):
        return [q.shape[1] for q in self.q_panels]


@dataclass
class ContinuationStep:
    """One continuation step: the raw three-term panel, its kept part
    ``u_t @ b_new`` of the given rank, and the removed difference
    ``h_panel = raw - u_t @ b_new``."""

    raw: np.ndarray
    u_t: np.ndarray
    b_new: np.ndarray
    rank: int
    h_panel: np.ndarray


def _basis_buffer(w_k: np.ndarray, n: int) -> np.ndarray:
    """An n x (m + n) array holding w_k in its first m columns, with room
    for every panel a continuation can add."""
    m = w_k.shape[1]
    basis = np.empty((n, m + n))
    basis[:, :m] = w_k
    return basis


def _split_step(raw: np.ndarray, basis: np.ndarray, svd_tol: float) -> ContinuationStep:
    """Reorthogonalize a raw panel against ``basis`` and cut its rank."""
    u_t, b_new, rank = truncated_svd(reorthogonalize(raw, basis), svd_tol)
    return ContinuationStep(raw, u_t, b_new, rank, raw - u_t @ b_new)


def continuation_first_step(
    a: np.ndarray,
    v_prev: np.ndarray | None,
    v_k: np.ndarray,
    alpha_k: np.ndarray,
    beta_k: np.ndarray | None,
    w_k: np.ndarray,
    svd_tol: float = 1e-12,
) -> ContinuationStep:
    """Step 1 of the continuation: step k of the original run replayed
    from v_{k-1}, v_k, alpha_k and beta_k, with every component along the
    protected basis w_k removed.

    Its kept coupling ``b_new`` is beta_{k+1} of the model (absent when
    the kept rank is zero); together with w_k and the next
    finite-precision panel it fixes the monitored terms, so those need
    no later step. ``v_prev``/``beta_k`` may be None for k = 1.
    """
    if svd_tol <= 0.0:
        raise ValueError("svd_tol must be > 0")
    raw = a @ v_k - v_k @ alpha_k
    if v_prev is not None and beta_k is not None:
        raw = raw - v_prev @ beta_k.T
    # w_k is read through the wide buffer continuation_run keeps its basis
    # in. BLAS rounds against a contiguous single column differently from
    # a strided one, so the layout fixes the last bits of every output
    # built on step 1.
    basis = _basis_buffer(w_k, a.shape[0])[:, : w_k.shape[1]]
    return _split_step(raw, basis, svd_tol)


def continuation_run(
    a: np.ndarray,
    v_prev: np.ndarray | None,
    v_k: np.ndarray,
    alpha_k: np.ndarray,
    beta_k: np.ndarray | None,
    w_k: np.ndarray,
    svd_tol: float = 1e-12,
    n_cap: int | None = None,
    fp_delta_norms=(),
    a_norm: float | None = None,
) -> ContinuationResult:
    """Run the recurrence past step k against the protected basis w_k.

    Step 1 is `continuation_first_step`: it replays step k of the
    original run but removes every component along w_k. Later steps are
    plain three-term steps on the new panels, each reorthogonalized twice
    against w_k and all panels generated so far. The kept part of each
    step comes from an SVD with absolute cutoff ``svd_tol``; the discarded
    difference is recorded as that step's h panel. The process ends when a
    step retains rank zero.

    ``v_prev``/``beta_k`` may be None for k = 1 (the recurrence then has
    no trailing term). ``fp_delta_norms`` should carry the measured
    residual norms of the finite-precision phase (steps 1..k-1) so the
    reported epsilon2 covers the whole model; without them it covers the
    continuation phase only.

    Raises CapReached if the rank has not hit zero after ``n_cap`` steps
    (default: the problem dimension).
    """
    n = a.shape[0]
    if a_norm is None:
        a_norm = sym_norm(a)
    if n_cap is None:
        n_cap = n

    basis = _basis_buffer(w_k, n)
    cols = w_k.shape[1]

    q_panels: list = []
    alphas: list = []
    betas: list = []
    h_panels: list = []
    h_norms: list = []

    for j in range(1, n_cap + 1):
        if j == 1:
            step = continuation_first_step(a, v_prev, v_k, alpha_k, beta_k, w_k, svd_tol)
        else:
            if j == 2:
                q1 = q_panels[0]
                aq = a @ q1
                trail = v_k @ betas[0].T
                al = q1.T @ (aq - trail)
                alphas.append(al)
                wt = aq - q1 @ al - trail
            else:
                qc = q_panels[-1]
                aq = a @ qc
                al = qc.T @ aq
                alphas.append(al)
                wt = aq - qc @ al - q_panels[-2] @ betas[-1].T
            step = _split_step(wt, basis[:, :cols], svd_tol)
        h_panels.append(step.h_panel)
        h_norms.append(panel_norm(step.h_panel))
        if step.rank == 0:
            break
        q_panels.append(step.u_t)
        betas.append(step.b_new)
        basis[:, cols : cols + step.rank] = step.u_t
        cols += step.rank
    else:
        raise CapReached("rank did not reach zero within %d steps" % n_cap)

    all_norms = list(fp_delta_norms) + h_norms
    epsilon2 = max(all_norms) / a_norm if all_norms else 0.0
    return ContinuationResult(
        q_panels=q_panels,
        alphas=alphas,
        betas=betas,
        h_panels=h_panels,
        h_norms=h_norms,
        epsilon2=float(epsilon2),
    )


def assemble_tn(
    t_k: BlockTridiagonal, beta_k1: np.ndarray | None, cont: ContinuationResult
) -> BlockTridiagonal:
    """Append the continuation blocks to T_k, giving the model matrix T_N.

    ``beta_k1`` is the bridging coupling between the last original block
    and the first continuation block; pass None to take it from the
    continuation result (they are the same object in a normal pipeline).
    With no continuation panels the result is just a copy of T_k.
    """
    alphas = [x.copy() for x in t_k.alphas]
    betas = [x.copy() for x in t_k.betas]
    if cont.q_panels:
        bridge = cont.betas[0] if beta_k1 is None else beta_k1
        alphas.extend(x.copy() for x in cont.alphas)
        betas.append(bridge.copy())
        betas.extend(x.copy() for x in cont.betas[1:])
    t_n = BlockTridiagonal(alphas, betas)
    t_n.check_structure()
    cont.t_n = t_n
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
    delta_norms: list = field(default_factory=list)


def _closed_form_inputs(run: LanczosRun, k: int, ritz: RitzSet, selection: SelectionReport):
    """What the closed forms at prefix k read from the run.

    Returns ``(v_k, r_defect, s_m, fp_trail)``: the last prefix panel, its
    overlap with all earlier panels (padded to k*p rows), the selected
    eigenvector block of T_k, and the next finite-precision panel times
    its coupling (None when a terminated run has no next panel).
    """
    p = run.width
    panels = run.panels
    v_k = panels[k - 1]
    prefix = run.basis[:, : (k - 1) * p]
    if prefix.size:
        r_defect = np.vstack([prefix.T @ v_k, np.zeros((p, p))])
    else:
        r_defect = np.zeros((k * p, p))
    s_m = ritz.s[:, selection.indices]

    beta_fp = run.t.betas[k - 1] if k < run.n_steps else run.beta_next
    has_next = k < run.n_steps or not run.terminated
    fp_trail = panels[k] @ beta_fp if has_next else None
    return v_k, r_defect, s_m, fp_trail


def monitored_terms(
    run: LanczosRun,
    k: int,
    ritz: RitzSet,
    selection: SelectionReport,
    w_k: np.ndarray,
    r_k: np.ndarray,
    beta_c: np.ndarray | None,
):
    """The three monitored terms ``(term21a, term21b, term22)`` at prefix k.

    They come from the closed forms of the first two continuation steps,
    so besides the run and the protected basis they need only beta_c, the
    coupling beta_{k+1} kept by continuation step 1; pass None when step 1
    kept rank zero, which makes term21b and term22 zero.
    See `DecompositionReport` for what each term measures.
    """
    return _terms(_closed_form_inputs(run, k, ritz, selection), w_k, r_k, beta_c)


def _terms(inputs, w_k, r_k, beta_c):
    """`monitored_terms` from already gathered `_closed_form_inputs`."""
    v_k, r_defect, s_m, fp_trail = inputs
    term21a = panel_norm(w_k.T @ fp_trail) if fp_trail is not None else 0.0
    if beta_c is None:
        return term21a, 0.0, 0.0
    m_r = scipy.linalg.solve_triangular(r_k.T, (r_defect.T @ s_m).T, lower=True).T
    vb = v_k @ beta_c.T
    return term21a, panel_norm(beta_c @ m_r), panel_norm(vb - w_k @ (w_k.T @ vb))


def perturbation_decomposition(
    run: LanczosRun,
    k: int,
    ritz: RitzSet,
    selection: SelectionReport,
    w_k: np.ndarray,
    r_k: np.ndarray,
    cont: ContinuationResult,
) -> DecompositionReport:
    """Measure the structural terms behind the recorded h panels.

    The first two steps of the continuation admit closed forms: the step-k
    perturbation is the projection of the next finite-precision panel onto
    the protected basis, and the next one is controlled by the overlap of
    v_k with the earlier panels pushed through the selected eigenvector
    block and the inverse basis factor. Later steps reduce to a rank-one
    style coupling through q_{k+1}. Everything left after subtracting
    those forms is returned in delta_norms; the three monitored scalars
    (`monitored_terms`) are also written back onto ``cont``.
    """
    beta_c = cont.betas[0] if cont.betas else None
    inputs = _closed_form_inputs(run, k, ritz, selection)
    terms = _terms(inputs, w_k, r_k, beta_c)
    cont.term21a, cont.term21b, cont.term22 = terms
    v_k, r_defect, s_m, fp_trail = inputs

    delta_norms = []
    h = cont.h_panels
    if h:
        d0 = h[0].copy()
        if fp_trail is not None:
            d0 = d0 - w_k @ (w_k.T @ fp_trail)
        delta_norms.append(panel_norm(d0))
    if len(h) >= 2:
        g = scipy.linalg.solve_triangular(r_k.T, s_m.T @ r_defect, lower=True)
        d1 = h[1] + w_k @ (g @ beta_c.T)
        delta_norms.append(panel_norm(d1))
    for j in range(2, len(h)):
        dj = h[j] - cont.q_panels[0] @ (beta_c @ (v_k.T @ cont.q_panels[j - 1]))
        delta_norms.append(panel_norm(dj))

    return DecompositionReport(*terms, delta_norms=delta_norms)


@dataclass
class PrefixContinuation:
    """The whole pipeline at one prefix k of a run (`continue_prefix`)."""

    ritz: RitzSet
    selection: SelectionReport
    w_k: np.ndarray
    r_k: np.ndarray
    cont: ContinuationResult
    report: DecompositionReport


def _select_at(run: LanczosRun, k: int, mu: float):
    """Ritz analysis, selection and protected basis at prefix k.

    Returns ``(ritz, selection, w_k, r_k, replay)`` with
    ``selection.rho_k`` filled in; ``replay`` is ``(v_{k-1}, v_k, alpha_k,
    beta_k)``, the run data continuation step 1 starts from.
    """
    ritz = ritz_analysis(run, k)
    selection = select_ritz_vectors(ritz, mu, run.a_norm)
    w_k, r_k, selection.rho_k = build_wk(ritz.z[:, selection.indices])
    replay = (
        run.panels[k - 2] if k >= 2 else None,
        run.panels[k - 1],
        run.t.alphas[k - 1],
        run.t.betas[k - 2] if k >= 2 else None,
    )
    return ritz, selection, w_k, r_k, replay


def continue_prefix(
    a: np.ndarray, run: LanczosRun, k: int, mu: float, svd_tol: float = 1e-12
) -> PrefixContinuation:
    """Select at threshold mu, continue to closure and decompose, at
    prefix k of a finite-precision run of ``a``.

    Raises EmptySelection, NearDependentRitzVectors or CapReached when the
    corresponding stage cannot proceed.
    """
    ritz, selection, w_k, r_k, replay = _select_at(run, k, mu)
    cont = continuation_run(
        a,
        *replay,
        w_k,
        svd_tol=svd_tol,
        fp_delta_norms=[row.delta_v_norm for row in run.diagnostics[:k]],
        a_norm=run.a_norm,
    )
    report = perturbation_decomposition(run, k, ritz, selection, w_k, r_k, cont)
    return PrefixContinuation(ritz, selection, w_k, r_k, cont, report)


def prefix_terms(a: np.ndarray, run: LanczosRun, k: int, mu: float, svd_tol: float = 1e-12):
    """The selection and the monitored terms at prefix k, from
    continuation step 1 alone.

    Returns ``(selection, (term21a, term21b, term22))``, bit for bit the
    terms `continue_prefix` reports, without continuing to closure.
    Raises EmptySelection or NearDependentRitzVectors like it.
    """
    ritz, selection, w_k, r_k, replay = _select_at(run, k, mu)
    step = continuation_first_step(a, *replay, w_k, svd_tol)
    beta_c = step.b_new if step.rank > 0 else None
    return selection, monitored_terms(run, k, ritz, selection, w_k, r_k, beta_c)
