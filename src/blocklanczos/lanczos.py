"""Block Lanczos with switchable orthogonalization, plus run diagnostics.

The driver `run_block_lanczos` produces a LanczosRun: the orthonormal (or
finite-precision) panels, stored side by side in one preallocated array,
the symmetric block tridiagonal they generate, the trailing coupling
block, and per-iteration health measurements taken in the same pass. The
Ritz values, T_k eigenvectors and residual bounds of any prefix of the
run come from `ritz_analysis`.

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

from .errors import RankDeficient, RankDeficientStart, ShapeMismatch
from .linalg import (
    BlockTridiagonal,
    Operator,
    _check_rank,
    as_operator,
    householder_qr,
    panel_norm,
    qr_unchecked,
    reorthogonalize,
    sym_eig,
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

    a           the run's checked `Operator`; a_norm is its norm
    basis       the panels side by side, shape (n, n_panels * width): a
                read-only column slice of the one C-order
                (n, (k_max + 1) * width) array the run filled in place
    panels      read-only view of basis as a (n_panels, n, width) stack;
                panels[j] is v_{j+1}. Holds v_1 .. v_K, plus v_{K+1}
                when the run stopped at k_max rather than by rank collapse
    t           alphas alpha_1..alpha_K and couplings beta_2..beta_K
    beta_next   beta_{K+1}; on natural termination its norm is at the
                breakdown tolerance
    terminated  True when the recurrence closed on its own
    diagnostics one DiagnosticsRow per step, measured as the run went
    """

    a: Operator
    basis: np.ndarray
    panels: np.ndarray
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
        return self.panels.shape[2]


@dataclass
class RitzSet:
    """Ritz data of the order-k prefix of a run.

    thetas      ascending Ritz values of T_k
    s           eigenvectors of T_k, columns matching thetas; the Ritz
                vectors are V_k s (columns not unit in finite precision)
    deltas      norm of beta_{k+1} times the bottom block row of s, per
                Ritz pair: the classical residual bound on the distance
                to an eigenvalue
    """

    k: int
    thetas: np.ndarray
    s: np.ndarray
    deltas: np.ndarray


def run_block_lanczos(
    a: np.ndarray | Operator,
    v: np.ndarray,
    k_max: int,
    mode: str = "finite_precision",
    breakdown_tol: float = 1e-12,
) -> LanczosRun:
    """Run block Lanczos for up to ``k_max`` steps.

    Parameters
    ----------
    a : (n, n) symmetric array, (n,) diagonal of a diagonal operator, or
        an `Operator`; both array forms of one operator give the same
        run bit for bit.
    v : (n, p) starting block, 1 <= p, k_max * p <= n.
    k_max : iteration budget.
    mode : "finite_precision" or "simulated_exact".
    breakdown_tol : relative rank threshold; the run stops (naturally
        terminated) when the smallest singular value of the candidate next
        panel falls to ``breakdown_tol * norm(a)`` or below (so the zero
        operator terminates after one step).

    Raises
    ------
    RankDeficientStart
        If the starting block has numerically dependent columns.
    NonFiniteOperator, NotSymmetric, ShapeMismatch, ValueError
        On contract violations of the inputs.
    """
    a = as_operator(a)
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

    a_norm = a.norm
    try:
        v1, _ = householder_qr(v)
    except RankDeficient as exc:
        raise RankDeficientStart(str(exc)) from exc

    basis = np.empty((n, (k_max + 1) * p))
    basis[:, :p] = v1
    eye = np.eye(p)
    alphas: list = []
    betas: list = []
    rows: list = []
    terminated = False

    vk, v_prev, beta_k = v1, None, None
    for k in range(1, k_max + 1):
        av = a @ vk
        back = None if v_prev is None else v_prev @ beta_k.T
        w = av if back is None else av - back
        # the projection coefficient is used as computed: subtracting a
        # symmetrized copy instead would leave the antisymmetric part of
        # v_k^T w in the panel, where ill-conditioned couplings amplify
        # it step over step and local orthogonality drifts off the
        # roundoff floor
        alpha = vk.T @ w
        v_alpha = vk @ alpha
        w = w - v_alpha
        if mode == "simulated_exact":
            w = reorthogonalize(w, basis[:, : k * p])
        alphas.append(alpha)
        # one QR serves both tests: sigma_min(w) is sigma_min of its p x p
        # factor; <= so that the zero operator (a_norm 0) terminates too
        q, beta_next = qr_unchecked(w)
        sigma_min = float(np.linalg.svd(beta_next, compute_uv=False).min())
        terminated = sigma_min <= breakdown_tol * a_norm
        if terminated:
            v_next = None
        else:
            _check_rank(w, beta_next)
            v_next = q
            basis[:, k * p : (k + 1) * p] = v_next

        # recurrence health of step k, from the products formed above
        res = av - v_alpha
        if back is not None:
            res = res - back
        if v_next is None:
            local = glob = 0.0
        else:
            trail = v_next @ beta_next
            res = res - trail
            local = panel_norm(vk.T @ trail)
            glob = panel_norm(basis[:, : k * p].T @ v_next)
        rows.append(
            DiagnosticsRow(
                j=k,
                delta_v_norm=panel_norm(res),
                normality=panel_norm(vk.T @ vk - eye),
                local_orth=local,
                beta_norm=panel_norm(beta_next),
                global_orth=glob,
            )
        )
        if terminated or k == k_max:
            break
        betas.append(beta_next)
        v_prev, vk, beta_k = vk, v_next, beta_next

    n_panels = len(alphas) + (0 if terminated else 1)
    basis = basis[:, : n_panels * p]
    basis.flags.writeable = False
    return LanczosRun(
        a=a,
        basis=basis,
        panels=basis.reshape(n, n_panels, p).transpose(1, 0, 2),
        t=BlockTridiagonal(alphas, betas),
        beta_next=beta_next,
        mode=mode,
        terminated=terminated,
        a_norm=a_norm,
        breakdown_tol=breakdown_tol,
        diagnostics=rows,
    )


def ritz_analysis(run: LanczosRun, k: int) -> RitzSet:
    """Ritz values, eigenvectors of T_k and residual bounds of the
    order-k prefix.

    Valid for any 1 <= k <= run.n_steps. The trailing coupling used for
    the residual bounds is beta_{k+1}: an interior coupling for k below the
    run length, the stored final block at k equal to it.
    """
    big_k = run.n_steps
    if not (1 <= k <= big_k):
        raise ValueError("k must be in [1, %d], got %d" % (big_k, k))
    thetas, s = sym_eig(BlockTridiagonal(run.t.alphas[:k], run.t.betas[: k - 1]))
    beta_kp1 = run.t.betas[k - 1] if k < big_k else run.beta_next
    deltas = np.linalg.norm(beta_kp1 @ s[(k - 1) * run.width :, :], axis=0)
    return RitzSet(k=k, thetas=thetas, s=s, deltas=deltas)
