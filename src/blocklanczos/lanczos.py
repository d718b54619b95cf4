"""Block Lanczos with switchable orthogonalization, plus run diagnostics.

The driver `run_block_lanczos` produces a LanczosRun: the orthonormal (or
finite-precision) panels and the symmetric block tridiagonal T_K they
generate, each filled in place in one preallocated array, the trailing
coupling block, and per-iteration health measurements of the recurrence.
The Ritz values, T_k eigenvectors and residual bounds of any prefix of the
run come from `ritz_analysis`.

Two modes:

``finite_precision``
    The plain three-term recurrence. Orthogonality among panels decays as
    Ritz pairs converge; that decay is the object of study, not a bug.

``simulated_exact``
    Every new panel is reorthogonalized against all previous panels before
    QR (`reorthogonalize`), which keeps global orthogonality at working
    precision: the run behaves like exact arithmetic for analysis purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RankDeficient, RankDeficientStart, ShapeMismatch
from .linalg import (Operator, as_operator, check_integer, householder_qr, qr_unchecked,
                     reorthogonalize, sym_eig)

MODES = ("finite_precision", "simulated_exact")
BREAKDOWN_TOL = 1e-12  # relative to norm(A); see run_block_lanczos
GRAM_CHUNK = 16  # panels per Gram product of the global_orth column


class Diagnostics(NamedTuple):
    """Health of the recurrence: five read-only float64 columns, entry j - 1
    for step j.

    delta_v_norm    norm of A v_j - v_{j-1} beta_j^T - v_j alpha_j - v_{j+1} beta_{j+1}, summed
                    in step j from its own fl(A v_j); it can read below the stored run's residual
    normality       norm of v_j^T v_j - I
    local_orth      norm of v_j^T v_{j+1} beta_{j+1}
    beta_norm       norm of beta_{j+1}
    global_orth     norm of V_j^T v_{j+1}, the panel's worst overlap with
                    everything before it

    The first four are norms of blocks formed in step j (beta_norm is the
    largest singular value of the breakdown test's SVD; the other two p x p
    blocks are normed together after the run, with the same bits);
    global_orth is taken after the run from chunked Gram products of the
    basis, so its last bits differ from an SVD of V_j^T v_{j+1}. On a
    naturally terminated run the last step has no trailing panel; its
    residual keeps the whole leftover block, whose norm is that of
    beta_{K+1}: only its smallest singular value is at the breakdown
    tolerance. The two orthogonality columns that need v_{j+1} report 0.
    """

    delta_v_norm: np.ndarray
    normality: np.ndarray
    local_orth: np.ndarray
    beta_norm: np.ndarray
    global_orth: np.ndarray


@dataclass
class LanczosRun:
    """Full record of one block Lanczos execution.

    a           the run's checked `Operator`; norm(A) is ``a.norm``
    basis       the panels side by side, shape (n, n_panels * width): a
                read-only column slice of the one C-order
                (n, (k_max + 1) * width) array the run filled in place
    panels      read-only view of basis as a (n_panels, n, width) stack;
                panels[j] is v_{j+1}. Holds v_1 .. v_K, plus v_{K+1}
                when the run stopped at k_max rather than by rank collapse
    t           T_K as one read-only (K p, K p) array, filled in place
                during the run: alpha_j on the diagonal, beta_{j+1} below
                it and beta_{j+1}^T above; T_k is its (k p, k p) corner
    beta_next   beta_{K+1}; on natural termination its smallest singular
                value is at the breakdown tolerance, its norm need not be
    terminated  True when the recurrence closed on its own
    diagnostics the recurrence health, one `Diagnostics` entry per step
    """

    a: Operator
    basis: np.ndarray
    panels: np.ndarray
    t: np.ndarray
    beta_next: np.ndarray
    terminated: bool
    diagnostics: Diagnostics

    @property
    def n_steps(self) -> int:
        return self.t.shape[0] // self.width

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

    thetas: np.ndarray
    s: np.ndarray
    deltas: np.ndarray


def run_block_lanczos(
    a: np.ndarray | Operator,
    v: np.ndarray,
    k_max: int,
    mode: str = "finite_precision",
) -> LanczosRun:
    """Run block Lanczos for up to ``k_max`` steps.

    Parameters
    ----------
    a : (n, n) symmetric array, (n,) diagonal of a diagonal operator, or
        an `Operator`; both array forms of one operator give the same
        run bit for bit. norm(a) is ``a.norm``: max|eigvals| of the
        spectrum an Operator was seeded with, else of its ``eigvalsh``.
    v : (n, p) starting block with k_max * p <= n; its QR (`householder_qr`)
        rejects a block that is not 2-d with 1 <= p <= n (ShapeMismatch).
    k_max : iteration budget, a Python or numpy integer.
    mode : "finite_precision" or "simulated_exact".

    Each step's only rank test is the breakdown test sigma_min(beta_{k+1})
    <= BREAKDOWN_TOL * norm(a), BREAKDOWN_TOL = 1e-12, on the p x p QR
    factor of the candidate next panel (whose sigma_min is the panel's). It
    ends the run, naturally terminated; the zero operator stops after one step.

    Raises
    ------
    RankDeficientStart
        If the starting block has numerically dependent columns.
    NonFiniteOperator, NotSymmetric, ShapeMismatch, ValueError
        On contract violations of the inputs; ValueError also when
        ``k_max`` is not an integer.
    """
    a = as_operator(a)
    if mode not in MODES:
        raise ValueError("mode must be one of %r" % (MODES,))
    try:
        v1, _ = householder_qr(v)
    except RankDeficient as exc:
        raise RankDeficientStart(str(exc)) from exc
    n, p = v.shape
    if a.shape[0] != n:
        raise ShapeMismatch("operator is %r but start block has %d rows" % (a.shape, n))
    check_integer("k_max", k_max)
    if k_max < 1 or k_max * p > n:
        raise ValueError("need 1 <= k_max and k_max * p <= n")

    basis = np.empty((n, (k_max + 1) * p))
    basis[:, :p] = v1
    t = np.zeros((k_max * p, k_max * p))
    eye = np.eye(p)
    health = np.zeros((k_max, 2, p, p))  # v_k^T v_k - I, v_k^T v_{k+1} beta_{k+1}
    res_norms, beta_norms = np.zeros(k_max), np.zeros(k_max)

    vk, back = v1, 0.0  # back: v_{k-1} beta_k^T, 0.0 at step 1 (no trailing term)
    for k in range(1, k_max + 1):
        av = a @ vk
        w = av - back
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
        lo, hi = (k - 1) * p, k * p
        t[lo:hi, lo:hi] = alpha
        # the step's one rank test: sigma_min(w) is sigma_min of its p x p
        # factor; <= so that the zero operator (norm 0) terminates too
        q, beta_next = qr_unchecked(w)
        sigmas = np.linalg.svd(beta_next, compute_uv=False)
        beta_norms[k - 1] = sigmas[0]
        terminated = float(sigmas.min()) <= BREAKDOWN_TOL * a.norm

        # recurrence health of step k, from the products formed above; res is
        # summed apart from w: taken from w, it would show only w's QR error
        res = av - v_alpha - back
        health[k - 1, 0] = vk.T @ vk - eye
        if not terminated:  # q is v_{k+1}
            basis[:, k * p : (k + 1) * p] = q
            trail = q @ beta_next
            res = res - trail
            health[k - 1, 1] = vk.T @ trail
        res_norms[k - 1] = np.linalg.svd(res, compute_uv=False)[0]
        if terminated or k == k_max:
            break
        t[hi : hi + p, lo:hi] = beta_next
        t[lo:hi, hi : hi + p] = beta_next.T
        vk, back = q, vk @ beta_next.T

    n_steps, n_panels = k, k + (0 if terminated else 1)
    basis, t = basis[:, : n_panels * p], t[: n_steps * p, : n_steps * p]
    basis.flags.writeable = t.flags.writeable = False
    # a stacked SVD runs norm(., 2)'s LAPACK routine on each block: same bits
    norms = np.linalg.svd(health[:n_steps], compute_uv=False)[..., 0].T
    # global_orth: per GRAM_CHUNK panels one product v^T V, masked to (V_j^T v_{j+1})^T,
    # whose norm is the root of the top eigenvalue of its p x p Gram
    glob = np.zeros(n_steps)  # 0 where v_{j+1} is not stored
    for j0 in range(1, n_panels, GRAM_CHUNK):
        j1 = min(j0 + GRAM_CHUNK, n_panels)
        c = (basis[:, j0 * p : j1 * p].T @ basis[:, : j1 * p]).reshape(j1 - j0, p, j1 * p)
        for i in range(j1 - j0):  # zero from v_{j+1} on (a broadcast mask let the RSS creep)
            c[i, :, (j0 + i) * p :] = 0.0
        glob[j0 - 1 : j1 - 1] = np.sqrt(np.linalg.eigvalsh(c @ c.transpose(0, 2, 1))[:, -1])
    diagnostics = Diagnostics(res_norms[:n_steps], *norms, beta_norms[:n_steps], glob)
    for column in diagnostics:
        column.flags.writeable = False
    return LanczosRun(
        a=a,
        basis=basis,
        panels=basis.reshape(n, n_panels, p).transpose(1, 0, 2),
        t=t,
        beta_next=beta_next,
        terminated=terminated,
        diagnostics=diagnostics,
    )


def ritz_analysis(run: LanczosRun, k: int) -> RitzSet:
    """Ritz values, eigenvectors of T_k and residual bounds of the
    order-k prefix.

    Valid for any integer (Python or numpy) 1 <= k <= run.n_steps, else
    ValueError; the residual bounds use beta_{k+1} (`beta_after`).
    """
    check_integer("k", k, 1, run.n_steps)
    p = run.width
    thetas, s = sym_eig(run.t[: k * p, : k * p])
    deltas = np.linalg.norm(beta_after(run, k) @ s[(k - 1) * p :, :], axis=0)
    return RitzSet(thetas=thetas, s=s, deltas=deltas)


def beta_after(run: LanczosRun, k: int) -> np.ndarray:
    """beta_{k+1}, the coupling below T_k: in run.t for k < run.n_steps, else run.beta_next."""
    p = run.width
    return run.t[k * p : (k + 1) * p, (k - 1) * p : k * p] if k < run.n_steps else run.beta_next
