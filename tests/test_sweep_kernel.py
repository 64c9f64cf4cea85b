"""The batched alternating sweep kernel against the per-restart loop it replaced.

``oracle_sweep`` and ``oracle_restarts`` are that earlier loop, kept here as
the reference: one restart at a time, and O(N^2) ``tensordot`` calls per
sweep on the site tensor.  ``workbounds._alternate`` now sweeps all restarts
of a chunk at once, with suffix contractions built by batched ``matmul``
and a left product grown site by site; these tests hold it, and
``eg_alternating`` on top of it, to the reference on random states.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from loccwork import workbounds
from loccwork.ensembles import ghz_state, zero_state
from loccwork.qstate import PureState
from loccwork.workbounds import (
    ProductState,
    _alternate,
    _bloch_grid,
    _fix_phases,
    _random_factors,
    _site_tensor,
    _sweep,
    eg_alternating,
    eg_bruteforce,
    product_overlap,
)

TOL = 1e-12


def oracle_sweep(tensor, factors):
    """One in-place alternating pass over all sites; returns the overlap."""
    n = tensor.ndim
    suffix = [None] * n
    suffix[n - 1] = tensor
    for m in range(n - 1, 0, -1):
        suffix[m - 1] = np.tensordot(suffix[m], factors[m].conj(), axes=([m], [0]))
    prev = None
    for k in range(n):
        env = suffix[k]
        for m in range(k):
            env = np.tensordot(env, factors[m].conj(), axes=([0], [0]))
        norm = float(np.linalg.norm(env))
        if norm > 0.0:
            factors[k] = env / norm
        if prev is not None and norm < prev - 1e-9:
            raise RuntimeError(f"alternating overlap decreased from {prev} to {norm}")
        prev = norm
    return prev


def oracle_restarts(state, restarts, tol=1e-10, max_iters=1000, rng_seed=None):
    """Per-restart overlaps, the best restart's factors, its index and the
    number of restarts that ran out of sweeps."""
    n, d = state.num_sites, state.local_dim
    tensor = _site_tensor(state)
    overlaps, best, best_factors, unconverged = [], -1, None, 0
    for r in range(restarts):
        rng = np.random.default_rng((rng_seed, r))
        factors = []
        for _ in range(n):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(f / np.linalg.norm(f))
        prev = 0.0
        for _ in range(max_iters):
            cur = oracle_sweep(tensor, factors)
            if cur - prev < tol:
                prev = cur
                break
            prev = cur
        else:
            unconverged += 1
        if best < 0 or prev > overlaps[best]:
            best, best_factors = r, [f.copy() for f in factors]
        overlaps.append(prev)
    return np.array(overlaps), best_factors, best, unconverged


# Restart counts cover 1..32; each (d, N) pair takes one of them.
CASES = [
    (d, n, restarts)
    for d, counts in ((2, (1, 32, 5, 17, 32, 8)), (3, (2, 9, 32, 3, 12, 1)))
    for n, restarts in zip(range(1, 7), counts)
]


@pytest.mark.parametrize("d,n,restarts", CASES)
def test_kernel_matches_oracle(d, n, restarts):
    for trial in range(2):
        state = random_state(n, seed=100 * n + 10 * d + trial, local_dim=d)
        want, want_factors, want_best, want_unconverged = oracle_restarts(
            state, restarts, rng_seed=trial
        )
        factors = _random_factors(n, d, restarts, trial)
        got, unconverged = _alternate(state.amplitudes, factors, 1e-10, 1000)
        assert np.max(np.abs(got - want)) < TOL
        assert int(np.argmax(got)) == want_best
        assert unconverged == want_unconverged
        assert np.max(np.abs(factors[want_best] - np.array(want_factors))) < 1e-8

        est = eg_alternating(state, restarts=restarts, rng_seed=trial)
        oracle_max = ProductState(_fix_phases(want_factors))
        want_value = -np.log(abs(product_overlap(oracle_max, state)) ** 2)
        assert abs(est.value - want_value) < TOL
        assert est.unconverged == want_unconverged


def test_start_factors_match_the_per_site_stream():
    for d, n in ((2, 5), (3, 3)):
        factors = _random_factors(n, d, 6, 11)
        for r in range(6):
            rng = np.random.default_rng((11, r))
            for k in range(n):
                f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                assert np.max(np.abs(factors[r, k] - f / np.linalg.norm(f))) < 1e-15


def test_fewer_restarts_are_a_prefix():
    state = random_state(5, seed=42)
    few, many = _random_factors(5, 2, 4, 3), _random_factors(5, 2, 16, 3)
    assert np.array_equal(few, many[:4])
    got_few, _ = _alternate(state.amplitudes, few, 1e-10, 1000)
    got_many, _ = _alternate(state.amplitudes, many, 1e-10, 1000)
    assert np.max(np.abs(got_few - got_many[:4])) < TOL
    assert np.max(np.abs(few - many[:4])) < 1e-8


BELL = PureState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
E0, E1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def _fixed_starts(*starts):
    """Stand-in for _random_factors that returns the given start factors."""
    return lambda n, d, restarts, rng_seed: np.array(starts, dtype=complex)


@pytest.mark.parametrize("bound", [2**21, 1])
def test_ties_keep_the_earlier_restart(monkeypatch, bound):
    # |00> and |11> reach the Bell overlap 1/sqrt(2) with the same arithmetic.
    monkeypatch.setattr(workbounds, "_SWEEP_CHUNK_AMPLITUDES", bound)
    starts = np.array([[E0, E0], [E1, E1]], dtype=complex)
    overlaps, _ = _alternate(BELL.amplitudes, starts, 1e-10, 10)
    assert overlaps[0] == overlaps[1]
    for first, second in ((E0, E1), (E1, E0)):
        starts = _fixed_starts([first, first], [second, second])
        monkeypatch.setattr(workbounds, "_random_factors", starts)
        est = eg_alternating(BELL, restarts=2, rng_seed=0)
        for f in est.maximizer.factors:
            assert np.array_equal(f, first.astype(complex))


@pytest.mark.parametrize("d,n", [(2, 7), (3, 4)])
def test_chunked_runs_match_unchunked(monkeypatch, d, n):
    state = random_state(n, seed=7 * n + d, local_dim=d)
    whole = _random_factors(n, d, 10, 5)
    want, want_unconverged = _alternate(state.amplitudes, whole, 1e-10, 1000)
    per_restart = (d**n - d) // (d - 1)
    for bound in (1, 3 * per_restart, 4 * per_restart - 1):
        monkeypatch.setattr(workbounds, "_SWEEP_CHUNK_AMPLITUDES", bound)
        factors = _random_factors(n, d, 10, 5)
        got, unconverged = _alternate(state.amplitudes, factors, 1e-10, 1000)
        assert np.max(np.abs(got - want)) < TOL
        assert np.max(np.abs(factors - whole)) < 1e-8
        assert unconverged == want_unconverged


def _kernel_peak_bytes(state, restarts):
    factors = _random_factors(state.num_sites, state.local_dim, restarts, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _alternate(state.amplitudes, factors, 1e-10, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_memory_stays_under_the_bound(monkeypatch):
    state = random_state(14, seed=1)
    per_restart = 2**14 - 2
    monkeypatch.setattr(workbounds, "_SWEEP_CHUNK_AMPLITUDES", 4 * per_restart)
    bound_bytes = 4 * per_restart * 16
    # On top ride numpy's fixed ufunc buffers (three operands of at most
    # getbufsize() complex numbers, whatever the array size), the factor
    # copies, the norms and the last site's environments.
    slack = 3 * np.getbufsize() * 16 + 64 * 1024
    assert _kernel_peak_bytes(state, 32) <= bound_bytes + slack
    # The whole batch at once would take eight times the bound.
    monkeypatch.setattr(workbounds, "_SWEEP_CHUNK_AMPLITUDES", 2**21)
    assert _kernel_peak_bytes(state, 32) > 6 * bound_bytes


def test_unconverged_counts_restarts_out_of_sweeps():
    state = random_state(4, seed=9)
    assert eg_alternating(state, restarts=5, max_iters=1, rng_seed=0).unconverged == 5
    assert eg_alternating(state, restarts=5, rng_seed=0).unconverged == 0
    # eg_bruteforce reports its 8-restart fallback's count.
    fallback = eg_alternating(state, restarts=8, rng_seed=0)
    assert eg_bruteforce(state, grid_points_per_axis=8).unconverged == fallback.unconverged
    assert eg_bruteforce(zero_state(1)).unconverged == 0


def test_zero_environment_leaves_the_factor_unchanged():
    # On |00>, a site-1 factor |1> zeroes site 0's environment and vice versa.
    factors = np.array([[E1, E1]], dtype=complex)
    overlaps = _sweep(zero_state(2).amplitudes, factors)
    assert overlaps.tolist() == [0.0]
    assert np.array_equal(factors, np.array([[E1, E1]], dtype=complex))


def test_fixed_sweeps_run_every_sweep():
    # tol None runs max_iters sweeps; every restart counts as out of sweeps.
    factors = _random_factors(3, 2, 4, 0)
    by_hand = factors.copy()
    for _ in range(5):
        want = _sweep(ghz_state(3).amplitudes, by_hand)
    overlaps, unconverged = _alternate(ghz_state(3).amplitudes, factors, None, 5)
    assert unconverged == 4
    assert np.array_equal(overlaps, want)
    assert np.array_equal(factors, by_hand)


def test_bruteforce_grid_start_attains_the_grid_maximum(monkeypatch):
    # The start handed to the 50 refinement sweeps must be the grid optimum:
    # every grid point on sites 0..N-3, the last two sites closed by an SVD.
    starts = []

    def spy(psi, factors, tol, max_iters):
        if tol is None:
            starts.append(factors.copy())
        return _alternate(psi, factors, tol, max_iters)

    monkeypatch.setattr(workbounds, "_alternate", spy)
    grid = _bloch_grid(6)
    for n in (3, 4):
        state = random_state(n, seed=60 + n)
        eg_bruteforce(state, grid_points_per_axis=6)
        want = 0.0
        for combo in itertools.product(grid, repeat=n - 2):
            m = _site_tensor(state)
            for f in combo:
                m = np.tensordot(m, f.conj(), axes=([0], [0]))
            want = max(want, np.linalg.svd(m, compute_uv=False)[0] ** 2)
        start = ProductState(tuple(starts[-1][0]))
        assert abs(abs(product_overlap(start, state)) ** 2 - want) < TOL
