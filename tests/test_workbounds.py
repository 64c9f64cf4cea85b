"""Tests for work functionals and product-overlap estimators.

The Schmidt oracle here reshapes by explicit index arithmetic and calls the
SVD directly, independent of the package's matricization helper.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loccwork

from loccwork.ensembles import ghz_state, graph_state, plus_state, w_state, zero_state
from loccwork.graphs import gen_lattice
from loccwork import workbounds
from loccwork.qstate import DensityOperator, PureState, StateSpecError
from loccwork.workbounds import (
    CERT_BRUTEFORCE,
    CERT_HEURISTIC,
    CERT_SCHMIDT,
    EgEstimate,
    ProductState,
    eg_alternating,
    eg_bruteforce,
    eg_schmidt,
    product_overlap,
    w_global,
    w_local,
    w_locc_upper,
)

LN2 = np.log(2.0)
# Frozen: -(3/4) ln(3/4) - (1/4) ln(1/4), and the W_3 exponent ln(9/4).
ENTROPY_3_4 = 0.5623351446188083
EG_W3 = 0.8109302162163288


def random_pure(n: int, seed: int, d: int = 2) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def schmidt_value_oracle(state: PureState) -> float:
    """Exact two-site exponent via hand-built 2x2 matrix M[z0, z1]."""
    m = np.zeros((2, 2), dtype=complex)
    for z0 in range(2):
        for z1 in range(2):
            m[z0, z1] = state.amplitudes[z0 + 2 * z1]
    smax = np.linalg.svd(m, compute_uv=False)[0]
    return -np.log(smax**2)


def test_product_state_validation():
    ProductState((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        ProductState((np.array([1.0, 1.0]),))
    with pytest.raises(ValueError):
        ProductState(())


def test_product_state_to_pure_ordering():
    # Site 0 = |1>, site 1 = |0> lands on flat index 1.
    p = ProductState((np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    assert abs(p.to_pure().amplitudes[1] - 1.0) < 1e-15


def test_product_overlap_matches_full_contraction():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        state = random_pure(n, seed=300 + trial)
        factors = []
        for _ in range(n):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            factors.append(f / np.linalg.norm(f))
        p = ProductState(tuple(factors))
        want = np.vdot(p.to_pure().amplitudes, state.amplitudes)
        assert abs(product_overlap(p, state) - want) < 1e-12


def test_w_global_values():
    assert abs(w_global(random_pure(3, seed=1)) - 3 * LN2) < 1e-12
    assert abs(w_global(DensityOperator(np.eye(4) / 4))) < 1e-12
    got = w_global(DensityOperator(np.diag([0.75, 0.25])))
    assert abs(got - (LN2 - ENTROPY_3_4)) < 1e-12


def test_w_local_values():
    assert abs(w_local(zero_state(4)) - 4 * LN2) < 1e-12
    assert abs(w_local(ghz_state(3))) < 1e-12
    assert abs(w_local(graph_state(gen_lattice("cycle", (5,))))) < 1e-9


def test_w_local_between_zero_and_global():
    for trial in range(20):
        s = random_pure(3, seed=40 + trial)
        assert -1e-12 <= w_local(s) <= w_global(s) + 1e-12


def test_eg_alternating_product_state_is_zero():
    s = zero_state(3)
    est = eg_alternating(s, restarts=4, rng_seed=1)
    assert abs(est.value) < 1e-9
    assert abs(abs(product_overlap(est.maximizer, s)) - 1.0) < 1e-9


def test_eg_alternating_ghz():
    est = eg_alternating(ghz_state(4), restarts=8, rng_seed=2)
    assert abs(est.value - LN2) < 1e-6


def test_eg_alternating_w_state():
    est = eg_alternating(w_state(3), restarts=16, rng_seed=3)
    assert abs(est.value - EG_W3) < 1e-6


def test_eg_alternating_matches_schmidt_on_two_sites():
    for trial in range(30):
        s = random_pure(2, seed=900 + trial)
        est = eg_alternating(s, restarts=8, rng_seed=trial)
        assert abs(est.value - schmidt_value_oracle(s)) < 1e-6
        assert est.certification == CERT_SCHMIDT


def test_eg_alternating_maximizer_consistency():
    for trial in range(10):
        s = random_pure(3, seed=700 + trial)
        est = eg_alternating(s, restarts=8, rng_seed=trial)
        p = abs(product_overlap(est.maximizer, s)) ** 2
        assert abs(p - np.exp(-est.value)) < 1e-8


def test_eg_alternating_deterministic_under_seed():
    s = random_pure(3, seed=77)
    a = eg_alternating(s, restarts=6, rng_seed=5)
    b = eg_alternating(s, restarts=6, rng_seed=5)
    assert a.value == b.value


def test_eg_alternating_more_restarts_never_worse():
    s = random_pure(4, seed=123)
    prev = None
    for r in (1, 4, 16):
        est = eg_alternating(s, restarts=r, rng_seed=9)
        if prev is not None:
            assert est.value <= prev + 1e-12
        prev = est.value


def test_eg_alternating_rejects_bad_params():
    s = zero_state(2)
    with pytest.raises(ValueError):
        eg_alternating(s, restarts=0)
    with pytest.raises(ValueError):
        eg_alternating(s, tol=0.0)


def test_eg_schmidt_known_values():
    assert abs(eg_schmidt(zero_state(2), (0,))) < 1e-12
    assert abs(eg_schmidt(ghz_state(2), (0,)) - LN2) < 1e-12


def test_eg_schmidt_matches_oracle():
    for trial in range(25):
        s = random_pure(2, seed=50 + trial)
        assert abs(eg_schmidt(s, (0,)) - schmidt_value_oracle(s)) < 1e-12


def test_eg_schmidt_rejects_bad_cut():
    s = ghz_state(3)
    with pytest.raises(ValueError):
        eg_schmidt(s, ())
    with pytest.raises(ValueError):
        eg_schmidt(s, (0, 1, 2))
    with pytest.raises(ValueError):
        eg_schmidt(s, (5,))
    with pytest.raises(StateSpecError):
        eg_schmidt(s, 1)
    # The cut is read once: a generator gives the value of its tuple.
    assert eg_schmidt(s, (x for x in (0,))) == eg_schmidt(s, (0,))
    assert abs(eg_schmidt(s, (x for x in (0,))) - LN2) < 1e-12


def test_eg_schmidt_lower_bounds_alternating():
    # A bipartite optimum dominates any full product, so as exponents the
    # Schmidt value sits at or below the alternating estimate.
    for trial in range(10):
        s = random_pure(3, seed=1200 + trial)
        est = eg_alternating(s, restarts=8, rng_seed=trial)
        assert eg_schmidt(s, (0,)) <= est.value + 1e-9


@pytest.mark.parametrize("points", [2, 3, 6, 24])
def test_bloch_grid_holds_each_state_once(points):
    # Every azimuth on a pole is one state up to phase, so each pole keeps
    # one point: G (G - 2) + 2 points, no two equal up to phase.
    grid = workbounds._bloch_grid(points)
    assert grid.shape == (points * (points - 2) + 2, 2)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-15)
    overlaps = np.abs(grid.conj() @ grid.T)
    np.fill_diagonal(overlaps, 0.0)
    assert overlaps.max() < 1 - 1e-9


def test_eg_bruteforce_plus_plus():
    est = eg_bruteforce(plus_state(2), grid_points_per_axis=24)
    assert abs(est.value) < 1e-9
    assert est.certification == CERT_BRUTEFORCE


def test_eg_bruteforce_ghz3_two_resolutions():
    for grid in (12, 24):
        est = eg_bruteforce(ghz_state(3), grid_points_per_axis=grid)
        assert abs(est.value - LN2) < 1e-4
    assert eg_bruteforce(ghz_state(3), grid_points_per_axis=12).certification == CERT_HEURISTIC


def test_eg_bruteforce_matches_alternating_on_w4():
    bf = eg_bruteforce(w_state(4), grid_points_per_axis=24)
    alt = eg_alternating(w_state(4), restarts=100, rng_seed=0)
    assert abs(bf.value - alt.value) < 1e-4


def test_eg_bruteforce_matches_schmidt_on_two_sites():
    for trial in range(10):
        s = random_pure(2, seed=2000 + trial)
        est = eg_bruteforce(s, grid_points_per_axis=24)
        assert abs(est.value - schmidt_value_oracle(s)) < 1e-8


def test_eg_bruteforce_never_above_alternating_on_randoms():
    # The certified search must find at least as good an overlap as the
    # heuristic (larger overlap = smaller exponent).
    for trial in range(10):
        s = random_pure(3, seed=3100 + trial)
        bf = eg_bruteforce(s, grid_points_per_axis=24)
        alt = eg_alternating(s, restarts=8, rng_seed=trial)
        assert bf.value <= alt.value + 1e-6


def test_eg_bruteforce_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        eg_bruteforce(random_pure(5, seed=0))
    with pytest.raises(ValueError):
        eg_bruteforce(random_pure(2, seed=0, d=3))


@pytest.mark.parametrize("search, message", [
    pytest.param(lambda s: eg_schmidt(s, ()), "cut must list sites of 0..2", id="empty-cut"),
    pytest.param(lambda s: eg_schmidt(s, (0, 1, 2)), "cut must list sites of 0..2",
                 id="every-site"),
    pytest.param(lambda s: eg_schmidt(s, (1, 0)), "cut must list sites of 0..2", id="unordered"),
    pytest.param(lambda s: eg_schmidt(s, (1, 1)), "cut must list sites of 0..2", id="repeated"),
    pytest.param(lambda s: eg_schmidt(s, (5,)), "cut must list sites of 0..2", id="out-of-range"),
    pytest.param(lambda s: eg_schmidt(s, 1), "cut must list sites of 0..2", id="non-iterable"),
    pytest.param(lambda s: eg_bruteforce(s, grid_points_per_axis=129), "grid <= 128",
                 id="grid-cap"),
    pytest.param(lambda s: eg_alternating(s, rng_seed=-1), "seed >= 0", id="negative-seed"),
])
def test_eg_searches_raise_spec_errors_before_any_work(monkeypatch, search, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the search started")

    for name in ("_matricize", "_bloch_grid", "_random_factors", "_alternate"):
        monkeypatch.setattr(workbounds, name, no_work)
    with pytest.raises(StateSpecError, match=re.escape(message)):
        search(ghz_state(3))


def test_w_locc_upper_values():
    est = eg_bruteforce(ghz_state(4))
    bound, cert = w_locc_upper(ghz_state(4), est)
    assert abs(bound - 3 * LN2) < 1e-6
    assert cert == CERT_BRUTEFORCE

    est2 = eg_bruteforce(zero_state(3))
    bound2, _ = w_locc_upper(zero_state(3), est2)
    assert abs(bound2 - 3 * LN2) < 1e-9


def test_w_locc_upper_rejects_mismatched_estimate():
    est = eg_alternating(ghz_state(3), restarts=4, rng_seed=1)
    with pytest.raises(ValueError):
        w_locc_upper(random_pure(3, seed=4), est)
    with pytest.raises(ValueError):
        w_locc_upper(random_pure(4, seed=4), est)


def test_eg_estimate_rejects_bad_fields():
    p = ProductState((np.array([1.0, 0.0]),))
    with pytest.raises(ValueError):
        EgEstimate(value=-0.5, maximizer=p, certification=CERT_HEURISTIC, restarts_used=1)
    with pytest.raises(ValueError):
        EgEstimate(value=0.1, maximizer=p, certification="magic", restarts_used=1)


def test_eg_bruteforce_reports_restarts_it_ran():
    # Grid start plus the 8-restart alternating fallback for N >= 2.
    assert eg_bruteforce(plus_state(1)).restarts_used == 1
    for n in (2, 3):
        assert eg_bruteforce(ghz_state(n), grid_points_per_axis=8).restarts_used == 9


# One restart whose site-1 factor has norm 10: it inflates the first site
# update tenfold; the second update, against a unit factor, cannot keep up.
DECREASING_SWEEP = """
import numpy as np
from loccwork.ensembles import zero_state
from loccwork.workbounds import _sweep
factors = np.array([[[1.0, 0.0], [10.0, 0.0]]], dtype=complex)
_sweep(zero_state(2).amplitudes, factors)
"""


def test_sweep_raises_when_overlap_decreases():
    with pytest.raises(RuntimeError, match="decreased"):
        exec(DECREASING_SWEEP, {})


def test_sweep_check_survives_optimized_mode():
    src = str(Path(loccwork.__file__).resolve().parents[1])
    script = f"import sys\nsys.path.insert(0, {src!r})\nassert False\n" + DECREASING_SWEEP
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                            text=True, timeout=120)
    # "assert False" passing shows -O is on; the sweep must still raise.
    assert result.returncode == 1
    assert "RuntimeError: alternating overlap decreased" in result.stderr
