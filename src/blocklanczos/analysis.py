"""Spectral bookkeeping: interlacing, clusters, spreads, certificate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AssumptionUnsatisfiable, ShapeMismatch
from .linalg import Operator, as_operator, check_finite, check_integer, sym_eig


def _check_growth(steps, p):
    """ValueError unless p is an integer >= 1, ShapeMismatch unless each step has p more values."""
    check_integer("p", p, 1)
    for prev, nxt in zip(steps, steps[1:]):
        if nxt.size != prev.size + p:
            raise ShapeMismatch("%d values follow %d, not p=%d more" % (nxt.size, prev.size, p))


def interlacing_check(thetas_k: np.ndarray, thetas_k1: np.ndarray, p: int):
    """Strict block interlacing between consecutive Ritz value sets.

    With K >= 1 values at the smaller step, the K + p values of the next
    step must satisfy (1-based indexing, primes mark the larger step)

        theta_1'      < theta_1
        theta_i       < theta_{i+p}'  < theta_{i+p}    for i = 1 .. K-p
        theta_K       < theta_{K+p}'

    Returns the violations in the order written above, as tuples
    ``(kind, i, left, right)``: kind is "bottom", "lower", "upper" or
    "top" and i the 1-based index of the failing inequality. ValueError
    unless p is an integer >= 1, ShapeMismatch for an empty smaller step or
    a wrong length.
    """
    tk = np.asarray(thetas_k, dtype=float)
    tk1 = np.asarray(thetas_k1, dtype=float)
    _check_growth([tk, tk1], p)
    if not tk.size:
        raise ShapeMismatch("the smaller step has no values to interlace")
    inner = tk1[p : tk.size]  # theta_{i+p}' for i = 1 .. K-p
    # one (left, right) row per inequality, in the order above
    pairs = np.vstack([[tk1[0], tk[0]],
                       np.column_stack([tk[: inner.size], inner, inner, tk[p:]]).reshape(-1, 2),
                       [tk[-1], tk1[-1]]])
    kinds = ["bottom"] + ["lower", "upper"] * inner.size + ["top"]
    index = np.r_[1, np.repeat(np.arange(1, inner.size + 1), 2), tk.size]
    return [(kinds[c], int(index[c]), float(pairs[c, 0]), float(pairs[c, 1]))
            for c in np.flatnonzero(~(pairs[:, 0] < pairs[:, 1]))]


@dataclass
class ConjectureReport:
    """Outcome of the containment scan.

    For every step k and every open interval (theta_i, theta_{i+p}) of
    it, each LATER step j must place a Ritz value strictly inside. rows
    holds one check per (k, i, j) as ``(k, i, j, theta_lo, theta_hi,
    contains)``, 1-based and ordered by k, then i, then j; violations
    lists the failing ones as (k - 1, i, j - 1).
    """

    rows: list
    violations: list

    @property
    def checks(self) -> int:
        return len(self.rows)

    @property
    def confirmations(self) -> int:
        return self.checks - len(self.violations)

    @property
    def percentage(self) -> float:
        return 100.0 * self.confirmations / self.checks if self.checks else 100.0


def conjecture_scan(theta_sequence, p: int) -> ConjectureReport:
    """Scan the ascending Ritz values of successive steps for interval containment.

    Each step must hold exactly p values more than the one before it
    (ShapeMismatch otherwise; ValueError unless p is an integer >= 1).
    """
    seq = [np.asarray(t, dtype=float) for t in theta_sequence]
    _check_growth(seq, p)
    rows, violations = [], []
    for ki, tk in enumerate(seq[:-1]):
        lo, hi = tk[:-p], tk[p:]
        later = np.arange(ki + 1, len(seq))
        # inside[i, j]: step later[j] has a value strictly inside (lo[i], hi[i])
        inside = np.array([np.searchsorted(seq[j], lo, side="right")
                           < np.searchsorted(seq[j], hi, side="left") for j in later]).T
        i, j = np.indices(inside.shape).reshape(2, -1)
        rows += zip([ki + 1] * i.size, (i + 1).tolist(), (later[j] + 1).tolist(),
                    lo[i].tolist(), hi[i].tolist(), inside.ravel().tolist())
        bad_i, bad_j = np.nonzero(~inside)
        violations += zip([ki] * bad_i.size, (bad_i + 1).tolist(), later[bad_j].tolist())
    return ConjectureReport(rows=rows, violations=violations)


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
    in exactly one label; members index into ``thetas`` as given, in
    ascending order of value. A negative or NaN psi or eta raises
    ValueError.
    """
    if not (psi >= 0.0 and eta >= 0.0):
        raise ValueError("psi and eta must be >= 0 (got %r, %r)" % (psi, eta))
    thetas = np.asarray(thetas, dtype=float)
    if not thetas.size:
        return []
    base = np.sort(np.asarray(base_eigs, dtype=float))
    order = np.argsort(thetas, kind="stable")
    cuts = np.flatnonzero(~(np.diff(thetas[order]) <= psi * a_norm)) + 1
    lo, hi = (f.reduceat(thetas[order], np.r_[0, cuts]) for f in (np.minimum, np.maximum))
    # a group is touched when some reference value lies in [lo - eta*a_norm, hi + eta*a_norm]
    touched = (np.searchsorted(base, hi + eta * a_norm, side="right")
               > np.searchsorted(base, lo - eta * a_norm, side="left"))
    return [ClusterLabel(kind="separated" if group.size == 1 else "proper" if hit else "improper",
                         members=group.tolist(), theta_min=float(g_lo), theta_max=float(g_hi))
            for group, hit, g_lo, g_hi in zip(np.split(order, cuts), touched, lo, hi)]


def _nearest(sorted_ref: np.ndarray, values: np.ndarray):
    """Index of the entry of ascending ``sorted_ref`` nearest each value, and its distance.

    The nearest entry is one of the two that bracket the value, since the
    rounded |t - e| never shrinks as e moves away from t; a tie goes to
    the lower index.
    """
    pos = np.searchsorted(sorted_ref, values)
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos, sorted_ref.size - 1)
    d_lo, d_hi = np.abs(values - sorted_ref[lo]), np.abs(values - sorted_ref[hi])
    take_lo = d_lo <= d_hi
    return np.where(take_lo, lo, hi), np.where(take_lo, d_lo, d_hi)


@dataclass
class SpreadReport:
    """How far the model eigenvalues scatter around the reference ones.

    Every model eigenvalue is assigned to its nearest reference
    eigenvalue (ties to the lower index); widths[i] is the largest
    distance among the values assigned to reference i, counts[i] how many
    landed there. The radius they are held against is the certificate's
    (`theorem1_certificate`).
    """

    base_eigs: np.ndarray
    widths: np.ndarray
    counts: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.counts.sum())

    @property
    def max_width(self) -> float:
        return float(self.widths.max()) if self.widths.size else 0.0


def interval_spread(tn_eigs: np.ndarray, base_eigs: np.ndarray) -> SpreadReport:
    """Assign model eigenvalues to reference ones and measure the scatter.

    The assignment sorts the reference values internally, so the report is
    invariant under permutations of either input. An empty reference set
    raises ShapeMismatch, a NaN or infinite value in either NonFiniteOperator.
    """
    base = np.sort(np.asarray(base_eigs, dtype=float))
    if not base.size:
        raise ShapeMismatch("no reference eigenvalues to assign model eigenvalues to")
    check_finite(tn_eigs, "model spectrum")
    check_finite(base, "reference spectrum")
    idx, dist = _nearest(base, np.asarray(tn_eigs, dtype=float))
    widths = np.zeros(base.size)
    np.maximum.at(widths, idx, dist)
    return SpreadReport(base_eigs=base, widths=widths, counts=np.bincount(idx, minlength=base.size))


class Theorem1Certificate(NamedTuple):
    """Eigenvalue-inclusion certificate for a model matrix and its ascending eigenvalues."""

    epsilon1: float
    bound: float
    holds: bool
    thetas: np.ndarray


def theorem1_certificate(
    tn: np.ndarray, n_blocks: int, basis: np.ndarray, a: np.ndarray | Operator, epsilon2: float,
) -> Theorem1Certificate:
    """Certify that every model eigenvalue sits near a true eigenvalue.

    ``tn`` is the model matrix as one dense array and ``n_blocks`` its
    block count N. The model Ritz vectors are ``basis @ s`` with s the
    eigenvectors of the model matrix. A column of norm below one half
    cannot anchor the standard residual argument, so its Ritz value pairs
    with the nearest large-norm one; epsilon1 is the largest such distance
    over norm(A) (zero when every column is large). The certified radius is

        bound = 3 * max(sqrt(N) * epsilon2, epsilon1) * norm(A)

    and ``holds`` states whether every model eigenvalue is within it of an
    eigenvalue of ``a``, an array or an `Operator`. norm(A) = max|a.eigvals|
    and this check read one spectrum: the one the Operator was seeded with,
    else its ``eigvalsh``.

    Raises ShapeMismatch when ``tn`` is not square, when ``n_blocks`` is
    outside [1, tn.shape[0]] or when ``basis`` does not have one column
    per row of the model, ValueError unless 0 <= epsilon2 < inf,
    AssumptionUnsatisfiable when every column is small or when some is and
    norm(A) = 0, which leaves epsilon1 without a scale.
    """
    if not 0.0 <= epsilon2 < np.inf:  # also rejects NaN
        raise ValueError("epsilon2 must be in [0, inf), got %r" % epsilon2)
    if tn.ndim != 2 or tn.shape[0] != tn.shape[1]:
        raise ShapeMismatch("model matrix must be square, got shape %r" % (tn.shape,))
    if not 1 <= n_blocks <= tn.shape[0]:
        raise ShapeMismatch("%r blocks for a model of dimension %d" % (n_blocks, tn.shape[0]))
    if basis.ndim != 2 or basis.shape[1] != tn.shape[0]:
        raise ShapeMismatch("basis has shape %r, model has dimension %d"
                            % (basis.shape, tn.shape[0]))
    a = as_operator(a)
    thetas, s = sym_eig(tn)
    small = np.linalg.norm(basis @ s, axis=0) < 0.5
    eps1 = 0.0
    if small.any():
        if small.all():
            raise AssumptionUnsatisfiable("every model Ritz vector has norm below 0.5")
        if a.norm == 0.0:
            raise AssumptionUnsatisfiable("small model Ritz vector and norm(A) = 0")
        eps1 = float(_nearest(thetas[~small], thetas[small])[1].max()) / a.norm
    bound = 3.0 * max(np.sqrt(n_blocks) * epsilon2, eps1) * a.norm
    holds = bool(np.all(_nearest(a.eigvals, thetas)[1] <= bound))
    return Theorem1Certificate(eps1, float(bound), holds, thetas)
