"""Block Lanczos with switchable orthogonalization, plus run diagnostics.

The driver `run_block_lanczos` produces a LanczosRun: the orthonormal (or
finite-precision) panels, the symmetric block tridiagonal they generate,
the trailing coupling block, and per-iteration health measurements. Ritz
data for any prefix of the run comes from `ritz_analysis`.

Two modes:

``finite_precision``
    The plain three-term recurrence. Orthogonality among panels decays as
    Ritz pairs converge; that decay is the object of study, not a bug.

``simulated_exact``
    Every new panel is reorthogonalized twice against all previous panels
    before QR, which keeps global orthogonality at working precision and
    makes the run behave like exact arithmetic for analysis purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteOperator,
    NotSymmetric,
    RankDeficient,
    RankDeficientStart,
    ShapeMismatch,
)
from .linalg import (
    BlockTridiagonal,
    densify,
    householder_qr,
    panel_norm,
    qr_unchecked,
    reorthogonalize,
    stack_panels,
    sym_eig,
    sym_norm,
)

MODES = ("finite_precision", "simulated_exact")


@dataclass
class DiagnosticsRow:
    """Health of recurrence step j (1-based).

    delta_v_norm    norm of the local recurrence residual
                    A v_j - v_{j-1} beta_j^T - v_j alpha_j - v_{j+1} beta_{j+1}
    normality       norm of v_j^T v_j - I
    local_orth      norm of v_j^T v_{j+1} beta_{j+1}
    beta_norm       norm of beta_{j+1}
    global_orth     norm of V_j^T v_{j+1}, the panel's worst overlap with
                    everything before it

    On a naturally terminated run the last row has no trailing panel; its
    residual keeps the leftover block (at the breakdown tolerance) and the
    two orthogonality columns that need v_{j+1} report 0.
    """

    j: int
    delta_v_norm: float
    normality: float
    local_orth: float
    beta_norm: float
    global_orth: float


@dataclass
class LanczosRun:
    """Full record of one block Lanczos execution.

    panels      v_1 .. v_K, plus v_{K+1} when the run stopped at k_max
                rather than by rank collapse
    t           alphas alpha_1..alpha_K and couplings beta_2..beta_K
    beta_next   beta_{K+1}; on natural termination its norm is at the
                breakdown tolerance
    terminated  True when the recurrence closed on its own
    """

    a: np.ndarray
    panels: list
    t: BlockTridiagonal
    beta_next: np.ndarray
    mode: str
    terminated: bool
    a_norm: float
    breakdown_tol: float
    diagnostics: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.t.n_blocks

    @property
    def width(self) -> int:
        return self.panels[0].shape[1]


@dataclass
class RitzSet:
    """Ritz data of the order-k prefix of a run.

    thetas      ascending Ritz values of T_k
    s           eigenvectors of T_k, columns matching thetas
    z           Ritz vectors V_k s (columns not unit in finite precision)
    sigma       bottom block rows of s (the last width rows)
    deltas      norm of beta_{k+1} sigma_i per Ritz pair: the classical
                residual bound on the distance to an eigenvalue
    z_norms     column norms of z
    fp_bounds   measured finite-precision version of the residual bound,
                (deltas * norm(v_{k+1}) + sqrt(k) * max_j norm(Delta v_j))
                / z_norms, valid without any orthogonality assumption
    """

    k: int
    thetas: np.ndarray
    s: np.ndarray
    z: np.ndarray
    sigma: np.ndarray
    deltas: np.ndarray
    z_norms: np.ndarray
    fp_bounds: np.ndarray


def _check_symmetric(a: np.ndarray):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("operator must be square, got %r" % (a.shape,))
    scale = float(np.linalg.norm(a))
    if not np.isfinite(scale):
        raise NonFiniteOperator(
            "operator norm is %r: NaN or infinite entries, or overflow" % scale
        )
    if scale > 0.0 and float(np.linalg.norm(a - a.T)) > 1e-12 * scale:
        raise NotSymmetric("operator asymmetry above 1e-12 relative")


def run_block_lanczos(
    a: np.ndarray,
    v: np.ndarray,
    k_max: int,
    mode: str = "finite_precision",
    breakdown_tol: float = 1e-12,
) -> LanczosRun:
    """Run block Lanczos for up to ``k_max`` steps.

    Parameters
    ----------
    a : (n, n) symmetric operator.
    v : (n, p) starting block, 1 <= p, k_max * p <= n.
    k_max : iteration budget.
    mode : "finite_precision" or "simulated_exact".
    breakdown_tol : relative rank threshold; the run stops (naturally
        terminated) when the smallest singular value of the candidate next
        panel falls below ``breakdown_tol * norm(a)``.

    Raises
    ------
    RankDeficientStart
        If the starting block has numerically dependent columns.
    NonFiniteOperator, NotSymmetric, ShapeMismatch, ValueError
        On contract violations of the inputs.
    """
    _check_symmetric(a)
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    if v.ndim != 2:
        raise ShapeMismatch("starting block must be 2-d")
    n, p = v.shape
    if a.shape[0] != n:
        raise ShapeMismatch("operator is %r but start block has %d rows" % (a.shape, n))
    if p < 1:
        raise ShapeMismatch("starting block needs at least one column")
    if k_max < 1 or k_max * p > n:
        raise ValueError("need 1 <= k_max and k_max * p <= n")

    a_norm = sym_norm(a)
    try:
        v1, _ = householder_qr(v)
    except RankDeficient as exc:
        raise RankDeficientStart(str(exc)) from exc

    panels = [v1]
    alphas: list = []
    betas: list = []
    beta_next = None
    terminated = False

    v_prev = None
    beta_k = None
    for k in range(1, k_max + 1):
        vk = panels[-1]
        w = a @ vk
        if v_prev is not None:
            w = w - v_prev @ beta_k.T
        # the projection coefficient is used as computed: subtracting a
        # symmetrized copy instead would leave the antisymmetric part of
        # v_k^T w in the panel, where ill-conditioned couplings amplify
        # it step over step and local orthogonality drifts off the
        # roundoff floor
        alpha = vk.T @ w
        w = w - vk @ alpha
        if mode == "simulated_exact":
            w = reorthogonalize(w, stack_panels(panels))
        alphas.append(alpha)
        svals = np.linalg.svd(w, compute_uv=False)
        if float(svals.min()) < breakdown_tol * a_norm:
            _, beta_next = qr_unchecked(w)
            terminated = True
            break
        q, r = householder_qr(w)
        if k == k_max:
            panels.append(q)
            beta_next = r
            break
        panels.append(q)
        betas.append(r)
        v_prev = vk
        beta_k = r

    run = LanczosRun(
        a=a,
        panels=panels,
        t=BlockTridiagonal(alphas, betas),
        beta_next=beta_next,
        mode=mode,
        terminated=terminated,
        a_norm=a_norm,
        breakdown_tol=breakdown_tol,
    )
    run.diagnostics = _measure_diagnostics(run)
    return run


def _measure_diagnostics(run: LanczosRun):
    a = run.a
    panels = run.panels
    alphas = run.t.alphas
    betas = run.t.betas
    big_k = len(alphas)
    eye = np.eye(run.width)
    rows = []
    for j in range(1, big_k + 1):
        vj = panels[j - 1]
        res = a @ vj - vj @ alphas[j - 1]
        if j > 1:
            res = res - panels[j - 2] @ betas[j - 2].T
        beta_jp1 = betas[j - 1] if j < big_k else run.beta_next
        has_next = j < big_k or not run.terminated
        if has_next:
            v_next = panels[j]
            trail = v_next @ beta_jp1
            res = res - trail
            local = panel_norm(vj.T @ trail)
            glob = panel_norm(stack_panels(panels[:j]).T @ v_next)
        else:
            local = 0.0
            glob = 0.0
        rows.append(
            DiagnosticsRow(
                j=j,
                delta_v_norm=panel_norm(res),
                normality=panel_norm(vj.T @ vj - eye),
                local_orth=local,
                beta_norm=panel_norm(beta_jp1),
                global_orth=glob,
            )
        )
    return rows


def recurrence_diagnostics(run: LanczosRun):
    """Per-iteration recurrence health of a finished run.

    Returns the rows measured when the run was built (they are a function
    of the stored panels and blocks only, so remeasuring would reproduce
    them bit for bit).
    """
    if not run.diagnostics:
        run.diagnostics = _measure_diagnostics(run)
    return run.diagnostics


def ritz_analysis(run: LanczosRun, k: int) -> RitzSet:
    """Ritz values, vectors, and residual bounds of the order-k prefix.

    Valid for any 1 <= k <= run.n_steps. The trailing coupling used for
    the residual bounds is beta_{k+1}: an interior coupling for k below the
    run length, the stored final block at k equal to it.
    """
    big_k = run.n_steps
    if not (1 <= k <= big_k):
        raise ValueError("k must be in [1, %d], got %d" % (big_k, k))
    p = run.width
    t_k = densify(BlockTridiagonal(run.t.alphas[:k], run.t.betas[: k - 1]))
    thetas, s = sym_eig(t_k)
    v_k = stack_panels(run.panels[:k])
    z = v_k @ s
    sigma = s[(k - 1) * p : k * p, :]
    beta_kp1 = run.t.betas[k - 1] if k < big_k else run.beta_next
    deltas = np.linalg.norm(beta_kp1 @ sigma, axis=0)
    z_norms = np.linalg.norm(z, axis=0)
    if k < big_k or not run.terminated:
        v_next_norm = panel_norm(run.panels[k])
    else:
        v_next_norm = 1.0
    max_delta = max(row.delta_v_norm for row in run.diagnostics[:k])
    fp_bounds = (deltas * v_next_norm + np.sqrt(k) * max_delta) / z_norms
    return RitzSet(
        k=k,
        thetas=thetas,
        s=s,
        z=z,
        sigma=sigma,
        deltas=deltas,
        z_norms=z_norms,
        fp_bounds=fp_bounds,
    )
