"""Spectral bookkeeping: interlacing, clusters, spreads, certificate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AssumptionUnsatisfiable, ShapeMismatch
from .linalg import BlockTridiagonal, sym_eig


def interlacing_check(thetas_k: np.ndarray, thetas_k1: np.ndarray, p: int):
    """Strict block interlacing between consecutive Ritz value sets.

    With K values at the smaller step, the K + p values of the next step
    must satisfy (1-based indexing)

        theta_1'      < theta_1
        theta_i       < theta_{i+p}'  < theta_{i+p}    for i = 1 .. K-p
        theta_K       < theta_{K+p}'

    where primes mark the larger step. Returns a list of violations, each
    a tuple ``(kind, i, left, right)`` with kind in {"bottom", "lower",
    "upper", "top"} and i the 1-based index of the failing inequality;
    empty list means strict interlacing holds everywhere.
    """
    tk = np.asarray(thetas_k, dtype=float)
    tk1 = np.asarray(thetas_k1, dtype=float)
    big_k = tk.size
    if tk1.size != big_k + p:
        raise ShapeMismatch(
            "next step must have exactly p=%d more values (%d vs %d)" % (p, big_k, tk1.size)
        )
    bad = []
    if not tk1[0] < tk[0]:
        bad.append(("bottom", 1, float(tk1[0]), float(tk[0])))
    for i0 in range(big_k - p):
        if not tk[i0] < tk1[i0 + p]:
            bad.append(("lower", i0 + 1, float(tk[i0]), float(tk1[i0 + p])))
        if not tk1[i0 + p] < tk[i0 + p]:
            bad.append(("upper", i0 + 1, float(tk1[i0 + p]), float(tk[i0 + p])))
    if not tk[big_k - 1] < tk1[big_k + p - 1]:
        bad.append(("top", big_k, float(tk[big_k - 1]), float(tk1[big_k + p - 1])))
    return bad


@dataclass
class ConjectureReport:
    """Outcome of the containment scan.

    For every step k in the sequence and every open interval
    (theta_i, theta_{i+p}) of that step, each LATER step must place at
    least one Ritz value strictly inside. checks counts (interval, later
    step) pairs; violations lists the failing triples
    (k_index, i, j_index) with indices into the supplied sequence
    (i 1-based within step k).
    """

    checks: int
    confirmations: int
    violations: list

    @property
    def percentage(self) -> float:
        return 100.0 * self.confirmations / self.checks if self.checks else 100.0


def conjecture_scan(theta_sequence, p: int) -> ConjectureReport:
    """Scan successive Ritz value sets for interval containment.

    ``theta_sequence`` holds the ascending Ritz values of consecutive
    steps (each entry p values longer than the previous one).
    """
    seq = [np.asarray(t, dtype=float) for t in theta_sequence]
    checks = 0
    confirmations = 0
    violations = []
    for ki, tk in enumerate(seq):
        size = tk.size
        for ji in range(ki + 1, len(seq)):
            tj = seq[ji]
            for i0 in range(size - p):
                lo, hi = tk[i0], tk[i0 + p]
                checks += 1
                inside = np.searchsorted(tj, lo, side="right") < np.searchsorted(
                    tj, hi, side="left"
                )
                if inside:
                    confirmations += 1
                else:
                    violations.append((ki, i0 + 1, ji))
    return ConjectureReport(checks=checks, confirmations=confirmations, violations=violations)


@dataclass
class ClusterLabel:
    """One group of Ritz values under the chaining distance psi * norm(A).

    kind is "separated" for a singleton, otherwise "proper" when some
    reference eigenvalue lies within the eta * norm(A) widened span of the
    group and "improper" when none does.
    """

    kind: str
    members: list
    theta_min: float
    theta_max: float


def classify_clusters(
    thetas: np.ndarray, base_eigs: np.ndarray, a_norm: float, psi: float, eta: float
):
    """Partition Ritz values into separated / proper / improper groups.

    Two Ritz values belong to the same group when they are connected by a
    chain of pairwise gaps at most psi * a_norm. Every input index appears
    in exactly one label; members index into ``thetas`` as given.
    """
    thetas = np.asarray(thetas, dtype=float)
    base = np.sort(np.asarray(base_eigs, dtype=float))
    order = np.argsort(thetas, kind="stable")
    labels = []
    group = [int(order[0])] if order.size else []
    for pos in range(1, order.size):
        idx = int(order[pos])
        prev = int(order[pos - 1])
        if thetas[idx] - thetas[prev] <= psi * a_norm:
            group.append(idx)
        else:
            labels.append(_label_group(group, thetas, base, a_norm, eta))
            group = [idx]
    if group:
        labels.append(_label_group(group, thetas, base, a_norm, eta))
    return labels


def _label_group(group, thetas, base, a_norm, eta):
    lo = float(np.min(thetas[group]))
    hi = float(np.max(thetas[group]))
    if len(group) == 1:
        kind = "separated"
    else:
        touched = np.any((base >= lo - eta * a_norm) & (base <= hi + eta * a_norm))
        kind = "proper" if touched else "improper"
    return ClusterLabel(kind=kind, members=list(group), theta_min=lo, theta_max=hi)


@dataclass
class SpreadReport:
    """How far the model eigenvalues scatter around the reference ones.

    Every model eigenvalue is assigned to its nearest reference
    eigenvalue (ties to the lower index); widths[i] is the largest
    distance among the values assigned to reference i, counts[i] how many
    landed there. bound carries 3 * max(sqrt(N) * epsilon2, epsilon1) *
    a_norm when the caller supplied the certificate data, else None.
    """

    base_eigs: np.ndarray
    widths: np.ndarray
    counts: np.ndarray
    dim: int
    epsilon1: float | None = None
    epsilon2: float | None = None
    bound: float | None = None

    @property
    def max_width(self) -> float:
        return float(self.widths.max()) if self.widths.size else 0.0


def interval_spread(
    tn_eigs: np.ndarray,
    base_eigs: np.ndarray,
    epsilon1: float | None = None,
    epsilon2: float | None = None,
    a_norm: float | None = None,
    n_blocks: int | None = None,
) -> SpreadReport:
    """Assign model eigenvalues to reference ones and measure the scatter.

    The assignment sorts the reference values internally, so the report is
    invariant under permutations of either input. Supplying epsilon1,
    epsilon2, a_norm, and the model block count N adds the certificate
    ceiling 3 * max(sqrt(N) * epsilon2, epsilon1) * a_norm.
    """
    tn_eigs = np.asarray(tn_eigs, dtype=float)
    base = np.sort(np.asarray(base_eigs, dtype=float))
    nb = base.size
    widths = np.zeros(nb)
    counts = np.zeros(nb, dtype=int)
    for t in tn_eigs:
        pos = int(np.searchsorted(base, t))
        lo = max(pos - 1, 0)
        hi = min(pos, nb - 1)
        # nearest of the two bracketing values, ties to the lower index
        idx = lo if abs(t - base[lo]) <= abs(t - base[hi]) else hi
        counts[idx] += 1
        widths[idx] = max(widths[idx], abs(t - base[idx]))
    bound = None
    if epsilon1 is not None and epsilon2 is not None and a_norm is not None and n_blocks:
        bound = 3.0 * max(np.sqrt(n_blocks) * epsilon2, epsilon1) * a_norm
    return SpreadReport(
        base_eigs=base,
        widths=widths,
        counts=counts,
        dim=int(tn_eigs.size),
        epsilon1=epsilon1,
        epsilon2=epsilon2,
        bound=bound,
    )


class Theorem1Certificate(NamedTuple):
    """Eigenvalue-inclusion certificate for a model matrix and its ascending eigenvalues."""

    epsilon1: float
    bound: float
    holds: bool
    thetas: np.ndarray


def theorem1_certificate(
    tn: BlockTridiagonal, basis: np.ndarray, a: np.ndarray, epsilon2: float
) -> Theorem1Certificate:
    """Certify that every model eigenvalue sits near a true eigenvalue.

    The model Ritz vectors are ``basis @ s`` with s the eigenvectors of
    the model matrix; columns of norm below one half cannot anchor
    the standard residual argument, so each must pair with a nearby
    large-norm Ritz value. epsilon1 is the largest such pairing distance
    relative to norm(A) (zero when every column is large). The certified
    radius is then

        bound = 3 * max(sqrt(N) * epsilon2, epsilon1) * norm(A)

    with N the model block count, and ``holds`` states whether every
    eigenvalue of the model is within that radius of an eigenvalue of A.

    Raises AssumptionUnsatisfiable when small-norm columns exist but no
    large-norm column does (nothing to pair against).
    """
    eigs_a = np.linalg.eigvalsh(0.5 * (a + a.T))
    a_norm = float(np.max(np.abs(eigs_a)))
    thetas, s = sym_eig(tn)
    z_norms = np.linalg.norm(basis @ s, axis=0)
    small = z_norms < 0.5
    if small.any():
        large = ~small
        if not large.any():
            raise AssumptionUnsatisfiable("every model Ritz vector has norm below 0.5")
        large_thetas = thetas[large]
        eps1 = 0.0
        for theta in thetas[small]:
            eps1 = max(eps1, float(np.min(np.abs(large_thetas - theta))) / a_norm)
    else:
        eps1 = 0.0
    bound = 3.0 * max(np.sqrt(tn.n_blocks) * epsilon2, eps1) * a_norm
    dists = np.array([float(np.min(np.abs(eigs_a - t))) for t in thetas])
    return Theorem1Certificate(float(eps1), float(bound), bool(np.all(dists <= bound)), thetas)
