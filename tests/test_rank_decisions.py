"""Rank decisions read from small factors equal the old rules on the whole block.

`build_wk` decides near dependence from the singular values of its m x m
triangular factor r_k, and `cg._direction_gram` takes norm(s)^2 from the
p x p Gram block s^T s, after a screen on its Cholesky factor that skips
the rule when it clears it by 10^4. The references below are the rules they replaced,
which took an SVD of the n x m block itself.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklanczos import NearDependentRitzVectors, build_wk
from blocklanczos.cg import _direction_gram
from blocklanczos.linalg import as_operator, inverse_cholesky, panel_norm


def ref_near_dependent(z):
    svals = np.linalg.svd(z, compute_uv=False)
    return svals[-1] < 1e-10 * svals[0], float(svals[-1] / svals[0]) / 1e-10


def ref_gram_halt(a, s):
    gram = s.T @ (a @ s)
    gram = 0.5 * (gram + gram.T)
    ratio = float(np.linalg.svd(gram, compute_uv=False).min()) / (
        1e-14 * a.norm * panel_norm(s) ** 2)
    return ratio < 1.0, ratio


def block(rng, n, m, log_ratio):
    """An n x m block with singular values log-spaced from 1 down to 10**log_ratio."""
    u, _ = np.linalg.qr(rng.standard_normal((n, m)))
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (u * np.logspace(0.0, log_ratio, m)) @ v.T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0), st.floats(-3.0, 9.0))
@example(n=12, m=3, seed=1, x=-2.0, y=-2.0)
@example(n=12, m=3, seed=1, x=2.0, y=2.0)  # passes the rule, not the screen
@example(n=12, m=3, seed=1, x=0.0, y=4.0)  # just outside the screen
@example(n=12, m=3, seed=1, x=0.0, y=4.2)  # just inside the screen
@example(n=12, m=3, seed=1, x=0.0, y=8.0)
def test_small_factor_decisions_equal_the_block_svd_rules(n, m, seed, x, y):
    m = min(m, n)
    rng = np.random.default_rng(seed)

    # the Ritz block's singular value ratio straddles 1e-10 by 10**x; r_k's
    # singular values carry the QR's backward error, about n eps norm(z),
    # which is up to ~3e-7 of sigma_min at the threshold (3,000 random
    # blocks), so only draws clear of it by 1e-4 relative are compared
    z = block(rng, n, m, -10.0 + x)
    near, ratio = ref_near_dependent(z)
    if abs(ratio - 1.0) > 1e-4:
        if near:
            with pytest.raises(NearDependentRitzVectors):
                build_wk(z)
        else:
            build_wk(z)

    # sigma_min(s^T A s) straddles 1e-14 norm(A) norm(s)^2 by about 10**y;
    # the two norm(s)^2 agree to a few eps, so 1e-12 relative is clear.
    # From y of about 4 + log10(m) on, ||f||_F^2 ||s||_F^2 norm(A) <= 1e10
    # and the Cholesky-first screen accepts without the rule's SVD
    a = as_operator(rng.uniform(0.5, 1.0, n))
    s = block(rng, n, m, 0.5 * (-14.0 + y))
    halt, ratio = ref_gram_halt(a, s)
    if abs(ratio - 1.0) > 1e-12:
        as_, f, failure = _direction_gram(a, s, 1)
        assert (failure == "singular direction Gram block at iteration 1") == halt
        if not halt:
            gram = s.T @ (a @ s)
            assert failure is None and np.array_equal(as_, a @ s)
            assert np.array_equal(f, inverse_cholesky(0.5 * (gram + gram.T)))
            if float(np.vdot(f, f)) * float(np.vdot(s, s)) * a.norm <= 1e10:
                assert ratio > 0.99e4  # the screen clears the rule by 10^4


def test_indefinite_gram_block_fails_in_the_inner_solve():
    # sigma_min(diag(1, -1)) = 1 passes the singular-value rule; the
    # Cholesky factorization is what fails
    _, _, failure = _direction_gram(as_operator(np.array([1.0, -1.0])), np.eye(2), 1)
    assert failure == "singular inner solve at iteration 1"
