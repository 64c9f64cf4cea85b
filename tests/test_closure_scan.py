"""The streamed closure scan of eg_bruteforce against the dense scan it replaced.

``dense_sigma_max_sq`` is that earlier scan's formula, kept here as the
reference: it takes the whole (R * G, 2, 2) stack of closed residuals at
once.  ``workbounds._closure_scan`` walks the same (residual, grid point)
pairs in chunks of bounded scratch; these tests hold its pick and its
maximum to the reference, and its memory to the chunk cap.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from loccwork import workbounds
from loccwork.ensembles import ghz_state, w_state
from loccwork.workbounds import _bloch_grid, _closure_scan, _site_tensor, eg_bruteforce

TOL = 1e-12


def dense_sigma_max_sq(w):
    """Largest squared singular value of a batch of 2x2 matrices."""
    t = (np.abs(w) ** 2).sum(axis=(-2, -1))
    det = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    disc = np.maximum(t**2 - 4 * np.abs(det) ** 2, 0.0)
    return (t + np.sqrt(disc)) / 2


def residuals_of(state, grid):
    """The (R, 2, 4) residuals eg_bruteforce scans: the tensor itself at
    N = 3, one per site-0 grid point at N = 4."""
    tensor = _site_tensor(state)
    if state.num_sites == 3:
        return tensor.reshape(1, 2, 4)
    return (grid.conj() @ tensor.reshape(2, 8)).reshape(-1, 2, 4)


def dense_scan(residuals, grid):
    """Reference sigma_max^2 of every pair, flat index r * G + g."""
    return dense_sigma_max_sq((grid.conj() @ residuals).reshape(-1, 2, 2))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("points", [6, 24, 25])
def test_scan_picks_the_dense_maximum(monkeypatch, n, points):
    grid = _bloch_grid(points)
    g = grid.shape[0]
    untied = 0
    for seed in range(8):
        residuals = residuals_of(random_state(n, seed=100 * n + seed), grid)
        sig = dense_scan(residuals, grid)
        want = int(np.argmax(sig))
        # Grid points on a pole coincide, or nearly so: the two arithmetics
        # may break such a tie differently, but must pick one of its points.
        tied = sig[want] - np.delete(sig, want).max() <= TOL
        untied += not tied
        # The default cap, then caps that split the rows into uneven chunks:
        # one row each, and three rows with a shorter last chunk.
        for cap in (workbounds._SCAN_CHUNK_BYTES, 1, 3 * workbounds._SCAN_PAIR_BYTES * g + 5):
            monkeypatch.setattr(workbounds, "_SCAN_CHUNK_BYTES", cap)
            got, best = _closure_scan(residuals, grid)
            assert abs(best - sig[want]) < TOL
            if tied:
                assert sig[want] - sig[got] <= TOL
            else:
                assert got == want
        monkeypatch.undo()
    assert untied >= 6


@pytest.mark.parametrize("state", [ghz_state(3), ghz_state(4), w_state(3), w_state(4)],
                         ids=["ghz3", "ghz4", "w3", "w4"])
@pytest.mark.parametrize("points", [6, 24])
def test_scan_maximum_on_symmetric_states(state, points):
    grid = _bloch_grid(points)
    residuals = residuals_of(state, grid)
    _, best = _closure_scan(residuals, grid)
    assert abs(best - dense_scan(residuals, grid).max()) < TOL


def _bruteforce_peak_bytes(state, points):
    # A first call pays for imports that numpy defers.
    eg_bruteforce(state, grid_points_per_axis=2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        eg_bruteforce(state, grid_points_per_axis=points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("points", [24, 64])
def test_bruteforce_memory_stays_under_the_chunk_cap(points):
    # At N = 4 the dense scan held all G^2 closed residuals at once: 33 MiB
    # at 24 points per axis, about 2 GiB at 64.  The stream holds one chunk
    # of at most _SCAN_CHUNK_BYTES, plus arrays of a few hundred bytes per
    # grid point (the grid, the residuals, the scan's feature and
    # coefficient arrays and their temporaries), plus numpy's fixed ufunc
    # buffers and the small refinement and fallback searches.
    g = points**2
    bound = workbounds._SCAN_CHUNK_BYTES + 512 * g + 3 * np.getbufsize() * 16 + 64 * 1024
    assert _bruteforce_peak_bytes(random_state(4, seed=3), points) <= bound
