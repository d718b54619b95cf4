"""Shared builders for the test suite."""

import numpy as np

from blocklanczos import spectrum_to_matrix


def rand_spd(n, seed, low=0.5, high=5.0):
    """Dense SPD matrix with a known random spectrum.

    Returns (a, eigs, rng) with the generator advanced past the
    construction draws, so callers can draw start blocks from the same
    stream.
    """
    rng = np.random.default_rng(seed)
    eigs = np.sort(rng.uniform(low, high, n))
    a, _ = spectrum_to_matrix(eigs, rng)
    return a, eigs, rng


def band_blocks(t, sizes):
    """The diagonal blocks and the couplings below them of a dense block
    tridiagonal ``t`` with the given block sizes, as two lists of views."""
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    alphas = [t[lo:hi, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    betas = [t[mid:hi, lo:mid] for lo, mid, hi in zip(edges[:-2], edges[1:-1], edges[2:])]
    return alphas, betas


def block_columns(basis, sizes):
    """The panels of ``basis`` with the given block widths, as column views."""
    edges = np.cumsum([0, *sizes])
    return [basis[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def run_blocks(run):
    """alpha_1 .. alpha_K and beta_2 .. beta_K of a run, as views of ``run.t``."""
    return band_blocks(run.t, [run.width] * run.n_steps)


def assert_band_layout(t, sizes):
    """``t`` is zero outside its block band, and each block above the
    diagonal is the transpose of the one below it, bit for bit."""
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    band = np.zeros(t.shape, bool)
    for j in range(len(sizes)):
        band[edges[j] : edges[j + 1], edges[max(j - 1, 0)] : edges[min(j + 2, len(sizes))]] = True
    assert not np.any(t[~band])
    for j in range(len(sizes) - 1):
        lo, mid, hi = edges[j : j + 3]
        assert np.array_equal(t[lo:mid, mid:hi], t[mid:hi, lo:mid].T)
