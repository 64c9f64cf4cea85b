"""Work functionals for pure states and estimators for the product-overlap
exponent that caps local extraction.

Throughout, work is measured in nats (units of k_B T with T the bath
temperature).  The global functional on a state of total dimension D is
ln D - S; the local functional sums ln d - S(rho_n) over single-site
marginals.  The product-overlap exponent of |psi> is
E = -ln max |<u_1 x ... x u_N|psi>|^2 over unit product vectors, and
ln D - E upper-bounds what any sequence of local measurement rounds can
certify on |psi>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    DensityOperator,
    PureState,
    StateSpecError,
    _fix_phases,
    _matricize,
    _site_list,
    _site_tensor,
    site_entropies,
    site_marginals,
    von_neumann_entropy,
)

CERT_BRUTEFORCE = "bruteforce_certified"
CERT_SCHMIDT = "schmidt_exact"
CERT_HEURISTIC = "heuristic_local_max"
# A Schmidt value across a cut of a state of 3+ sites: a lower bound on E.
CERT_CUT_LOWER = "cut_lower_bound"

# eg search defaults, read by lab and the CLI: alternating restarts, and
# bruteforce grid points per axis.  A bruteforce grid of at least
# CERTIFIED_GRID points per axis is labelled bruteforce_certified; the
# default grid is the coarsest such grid.
DEFAULT_RESTARTS = 32
CERTIFIED_GRID = 24
DEFAULT_GRID = CERTIFIED_GRID
# Largest bruteforce grid; the N = 4 scan grows as points^4 (2.8 s at 128, 2 vCPU).
MAX_GRID = 128
# The searches eg_estimate runs by name; check_eg also judges "schmidt".
EG_METHODS = ("alternating", "bruteforce")


def check_eg(method, num_sites: int, local_dim: int, *, restarts: int = DEFAULT_RESTARTS,
             grid: int = DEFAULT_GRID, seed: int | None = None, cut=(0,)) -> None:
    """Raises StateSpecError where an eg search would reject its parameters
    on a state of this shape; allocates nothing.  alternating: restarts >= 1,
    seed >= 0 or None; bruteforce: at most 4 qubit sites, 2 <= grid <=
    MAX_GRID; schmidt: a cut that qstate._site_list accepts and that leaves
    out at least one site.  Other methods pass."""
    if method == "alternating":
        if restarts < 1:
            raise StateSpecError("eg restarts must be >= 1")
        if seed is not None and seed < 0:
            raise StateSpecError("the alternating eg search needs a seed >= 0")
    elif method == "bruteforce":
        if local_dim != 2:
            raise StateSpecError("bruteforce exponent search handles qubit sites only")
        if num_sites > 4:
            raise StateSpecError("bruteforce exponent search is limited to 4 sites")
        if grid < 2:
            raise StateSpecError("bruteforce exponent search needs grid >= 2")
        if grid > MAX_GRID:
            raise StateSpecError(f"bruteforce exponent search needs grid <= {MAX_GRID}")
    elif method == "schmidt":
        _cut_sites(cut, num_sites)


def _cut_sites(cut, num_sites: int) -> tuple[int, ...]:
    """The sites of a schmidt cut, read once; StateSpecError unless
    qstate._site_list accepts them and at least one site is left out."""
    try:
        cut = list(cut)
    except TypeError:
        pass
    sites = _site_list(cut, num_sites)
    if sites is None or len(sites) >= num_sites:
        raise StateSpecError(f"cut must list sites of 0..{num_sites - 1} in increasing order, "
                             f"at least one and not all of them; got {cut}")
    return sites


@dataclass(frozen=True)
class ProductState:
    """Tuple of per-site unit vectors."""

    factors: tuple = field(repr=False)

    def __post_init__(self) -> None:
        factors = tuple(np.asarray(f, dtype=complex) for f in self.factors)
        if not factors:
            raise ValueError("need at least one factor")
        for f in factors:
            if f.ndim != 1:
                raise ValueError("factors must be vectors")
            if abs(np.linalg.norm(f) - 1.0) > 1e-10:
                raise ValueError("factors must be unit vectors within 1e-10")
        frozen = []
        for f in factors:
            f = f.copy()
            f.flags.writeable = False
            frozen.append(f)
        object.__setattr__(self, "factors", tuple(frozen))

    @property
    def num_sites(self) -> int:
        return len(self.factors)

    def to_pure(self) -> PureState:
        """Full statevector; site 0 is the fastest index."""
        amps = np.array([1.0 + 0.0j])
        for f in self.factors:
            amps = np.kron(f, amps)
        d = self.factors[0].size
        return PureState(len(self.factors), d, amps)


@dataclass(frozen=True)
class EgEstimate:
    """Product-overlap exponent estimate, in nats.

    certification is one of bruteforce_certified, schmidt_exact, or
    heuristic_local_max; only the first two may be treated as upper-bound
    grade.  The invariant |<maximizer|psi>|^2 = exp(-value) is established
    at construction sites and re-checked by w_locc_upper.  unconverged
    counts the alternating restarts that stopped at max_iters before their
    overlap gain fell below tol.
    """

    value: float
    maximizer: ProductState
    certification: str
    restarts_used: int
    unconverged: int = 0

    def __post_init__(self) -> None:
        if self.value < -1e-9:
            raise ValueError(f"negative exponent {self.value}")
        if self.certification not in (CERT_BRUTEFORCE, CERT_SCHMIDT, CERT_HEURISTIC):
            raise ValueError(f"unknown certification {self.certification!r}")


def product_overlap(product: ProductState, state: PureState) -> complex:
    """<u_1 x ... x u_N | psi>."""
    if product.num_sites != state.num_sites:
        raise ValueError("site count mismatch")
    cur = _site_tensor(state)
    for f in product.factors:
        cur = np.tensordot(cur, f.conj(), axes=([0], [0]))
    return complex(cur)


def w_global(x: PureState | DensityOperator) -> float:
    """ln(dim) - S(rho): work unlocked by a global unitary against the bath."""
    if isinstance(x, PureState):
        return float(np.log(x.dim))
    return float(np.log(x.dim)) - von_neumann_entropy(x)


def w_local(state: PureState) -> float:
    """sum_n (ln d - S(rho_n)): work available without any communication."""
    marginals = site_marginals(state.amplitudes[np.newaxis], state.num_sites, state.local_dim)
    return float((np.log(state.local_dim) - site_entropies(marginals[0])).sum())


# Restarts are swept in chunks whose suffix contractions hold at most this
# many amplitudes together (32 MiB).
_SWEEP_CHUNK_AMPLITUDES = 2**21


def _sweep(psi: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """One in-place alternating pass over all sites of R restarts at once.

    psi holds the amplitudes (site 0 fastest); factors is the (R, N, d)
    array of unit factors.  Site k's update contracts the suffix over sites
    k+1..N-1 (old factors, built once per pass by batched matmul) with the
    left product over sites 0..k-1 (new factors, grown site by site).  It
    is the exact maximizer given the others, so no restart's overlap can
    fall; the pass raises RuntimeError if one falls by more than 1e-9.  A
    zero environment leaves its factor unchanged.  Returns the (R,)
    overlaps.
    """
    r, n, d = factors.shape
    conj = factors.conj()
    rows = psi.reshape(d, -1)
    # suffix[0] is psi contracted over site N-1, suffix[-1] over sites
    # 1..N-1 (site 0's environment), so pop() hands out sites 0, 1, ... in turn.
    suffix = []
    if n > 1:
        suffix.append(conj[:, n - 1] @ rows)
        for k in range(n - 2, 0, -1):
            suffix.append((conj[:, k, np.newaxis] @ suffix[-1].reshape(r, d, -1))[:, 0])
    left = np.ones((r, 1), dtype=complex)
    norms = np.empty((r, n))
    for k in range(n):
        if k < n - 1:
            env = (suffix.pop().reshape(r, d, -1) @ left[:, :, np.newaxis])[:, :, 0]
        else:
            env = (rows @ left.T).T
        norm = np.linalg.norm(env, axis=1)
        norms[:, k] = norm
        np.divide(env, norm[:, np.newaxis], out=factors[:, k], where=norm[:, np.newaxis] > 0.0)
        if k < n - 1:
            left = (factors[:, k, :, np.newaxis].conj() * left[:, np.newaxis]).reshape(r, -1)
    fell = np.diff(norms, axis=1) < -1e-9
    if fell.any():
        i, k = np.argwhere(fell)[0]
        raise RuntimeError(
            f"alternating overlap decreased from {norms[i, k]} to {norms[i, k + 1]}"
        )
    return norms[:, -1]


def _alternate(
    psi: np.ndarray, factors: np.ndarray, tol: float | None, max_iters: int
) -> tuple[np.ndarray, int]:
    """Alternating sweeps from R starting points, factors updated in place.

    Each restart sweeps until its overlap gain drops below tol or max_iters
    sweeps elapse (tol None: always max_iters sweeps); restarts that stop
    leave the active set.  Restarts run in chunks that keep one chunk's
    suffix contractions within _SWEEP_CHUNK_AMPLITUDES; restarts are
    independent, so chunking changes no result.  Returns the (R,) final
    overlaps and the number of restarts that ran out of sweeps.
    """
    r, n, d = factors.shape
    # One restart's suffix arrays hold d + d^2 + ... + d^(N-1) amplitudes.
    per_restart = max(1, (d**n - d) // (d - 1))
    chunk = max(1, _SWEEP_CHUNK_AMPLITUDES // per_restart)
    overlaps = np.empty(r)
    unconverged = 0
    for lo in range(0, r, chunk):
        active = np.arange(lo, min(lo + chunk, r))
        batch = factors[active]
        prev = np.zeros(active.size)
        for _ in range(max_iters):
            cur = _sweep(psi, batch)
            gain, prev = cur - prev, cur
            if tol is not None and (gain < tol).any():
                going = gain >= tol
                stop = active[~going]
                factors[stop], overlaps[stop] = batch[~going], prev[~going]
                active, batch, prev = active[going], batch[going], prev[going]
                if not active.size:
                    break
        factors[active], overlaps[active] = batch, prev
        unconverged += active.size
    return overlaps, unconverged


def _random_factors(num_sites: int, local_dim: int, restarts: int, rng_seed) -> np.ndarray:
    """(R, N, d) random unit factors; restart r draws from seed (rng_seed, r),
    real then imaginary part site by site."""
    factors = np.empty((restarts, num_sites, local_dim), dtype=complex)
    for r in range(restarts):
        rng = np.random.default_rng((rng_seed, r) if rng_seed is not None else None)
        x = rng.standard_normal((num_sites, 2, local_dim))
        factors[r] = x[:, 0] + 1j * x[:, 1]
    return factors / np.linalg.norm(factors, axis=2, keepdims=True)


def eg_alternating(
    state: PureState,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = 1e-10,
    max_iters: int = 1000,
    rng_seed: int | None = None,
) -> EgEstimate:
    """Estimate the product-overlap exponent by alternating optimization.

    Each restart starts from an independent random product state (restart r
    uses seed (rng_seed, r), so results with fewer restarts are a prefix of
    results with more) and sweeps sites until the overlap gain drops below
    tol or max_iters sweeps elapse; unconverged counts the restarts that
    ran out of sweeps.  The best overlap across restarts wins; ties keep
    the earlier restart.

    On two-site states the result is cross-checked against the exact Schmidt
    value and certified schmidt_exact when they agree to 1e-8; otherwise the
    certification is heuristic_local_max, meaning the reported exponent is
    an upper bound on the true one by an unknown margin.
    """
    n, d = state.num_sites, state.local_dim
    check_eg("alternating", n, d, restarts=restarts, seed=rng_seed)
    if max_iters < 1 or tol <= 0:
        raise ValueError("max_iters must be >= 1 and tol > 0")
    factors = _random_factors(n, d, restarts, rng_seed)
    overlaps, unconverged = _alternate(state.amplitudes, factors, tol, max_iters)
    maximizer = ProductState(_fix_phases(factors[int(np.argmax(overlaps))]))
    # Recompute from the maximizer so value and maximizer agree exactly.
    p = abs(product_overlap(maximizer, state)) ** 2
    value = float(-np.log(p))
    cert = CERT_HEURISTIC
    if n == 2:
        exact = eg_schmidt(state, (0,))
        if abs(value - exact) <= 1e-8:
            cert = CERT_SCHMIDT
    return EgEstimate(
        value=value,
        maximizer=maximizer,
        certification=cert,
        restarts_used=restarts,
        unconverged=unconverged,
    )


def eg_schmidt(state: PureState, cut: tuple = (0,)) -> float:
    """-ln(sigma_max^2) across the given bipartition.

    Exact product-overlap exponent for two-site states; for more sites it is
    a lower bound on the exponent (the best bipartite product beats any full
    product across the same cut).  check_eg judges the cut.
    """
    mat = _matricize(state, _cut_sites(cut, state.num_sites))
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    return float(-np.log(smax**2))


def _bloch_grid(points_per_axis: int) -> np.ndarray:
    """(G (G - 2) + 2, 2) array of qubit states over a G polar x G azimuthal
    grid, in row-major order.  Every azimuth on a pole is the same state up
    to phase, so each pole keeps only its azimuth-0 point."""
    theta = np.linspace(0.0, np.pi, points_per_axis)
    phi = np.linspace(0.0, 2 * np.pi, points_per_axis, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    states = np.stack(
        [np.cos(th / 2), np.sin(th / 2) * np.exp(1j * ph)], axis=-1
    )
    keep = (th > 0.0) & (th < np.pi) | (ph == 0.0)
    return states[keep]


# The closure scan walks (residual, grid point) pairs in chunks of whole
# residual rows whose scratch (float t, complex det and float sigma^2: 32
# bytes a pair) stays within this many bytes, or within one row when a row
# is larger.
_SCAN_CHUNK_BYTES = 2**21
_SCAN_PAIR_BYTES = 32


def _closure_scan(residuals: np.ndarray, grid: np.ndarray) -> tuple[int, float]:
    """Best (residual, grid point) pair of a closure scan, and its sigma_max^2.

    residuals is (R, 2, 4): residual r splits into the 2x2 matrices M_0 =
    residuals[r, 0] and M_1 = residuals[r, 1] (row-major), one per state of
    the scanned site.  Grid point g closes them to W = sum_a conj(g_a) M_a,
    whose largest squared singular value is (t + sqrt(t^2 - 4 |det W|^2)) / 2
    with t = |W|_F^2.  Both t and det W are quadratic forms in g, so a chunk
    of rows takes one real (rows, 4) @ (4, G) product for t and one complex
    (rows, 3) @ (3, G) product for det.  Returns the flat index r * G + g of
    the first maximum in row-major order, and the maximum.
    """
    x, y = grid[:, 0].conj(), grid[:, 1].conj()
    xy = x * y.conj()
    t_feat = np.stack([np.abs(x) ** 2, np.abs(y) ** 2, xy.real, xy.imag])
    det_feat = np.stack([x * x, x * y, y * y])
    m0, m1 = residuals[:, 0], residuals[:, 1]
    k01 = (m0 * m1.conj()).sum(axis=1)
    t_coef = np.stack(
        [(np.abs(m0) ** 2).sum(axis=1), (np.abs(m1) ** 2).sum(axis=1), 2 * k01.real, -2 * k01.imag],
        axis=1,
    )
    # det(x A + y B) = x^2 det A + x y (A00 B11 + A11 B00 - A01 B10 - A10 B01) + y^2 det B.
    a00, a01, a10, a11 = m0.T
    b00, b01, b10, b11 = m1.T
    det_coef = np.stack(
        [
            a00 * a11 - a01 * a10,
            a00 * b11 + a11 * b00 - a01 * b10 - a10 * b01,
            b00 * b11 - b01 * b10,
        ],
        axis=1,
    )
    r, g = residuals.shape[0], grid.shape[0]
    rows = min(r, max(1, _SCAN_CHUNK_BYTES // (_SCAN_PAIR_BYTES * g)))
    t_buf, det_buf, sig_buf = np.empty((rows, g)), np.empty((rows, g), complex), np.empty((rows, g))
    best, best_sig = 0, -1.0
    for lo in range(0, r, rows):
        n = min(rows, r - lo)
        t, det, sig = t_buf[:n], det_buf[:n], sig_buf[:n]
        np.matmul(t_coef[lo : lo + n], t_feat, out=t)
        np.matmul(det_coef[lo : lo + n], det_feat, out=det)
        np.abs(det, out=sig)
        sig *= sig
        sig *= -4.0
        # det is spent once |det| is taken; its real parts hold t^2.
        np.multiply(t, t, out=det.real)
        sig += det.real
        np.maximum(sig, 0.0, out=sig)
        np.sqrt(sig, out=sig)
        sig += t
        i = int(np.argmax(sig))
        if sig.flat[i] > best_sig:
            best, best_sig = lo * g + i, float(sig.flat[i])
    return best, best_sig / 2


def eg_bruteforce(state: PureState, grid_points_per_axis: int = DEFAULT_GRID) -> EgEstimate:
    """Certified small-system search for the product-overlap exponent.

    Qubits only, at most 4 sites, 2 <= grid_points_per_axis <= MAX_GRID
    (check_eg, before any allocation).  The first N-2 sites are scanned over
    a Bloch-sphere grid (grid_points_per_axis polar x azimuthal points
    each); for every grid combination the final two sites are closed exactly
    through the top singular value of the residual 2x2 matrix, which
    dominates any grid on those sites.  The scan streams over the
    combinations in chunks of at most _SCAN_CHUNK_BYTES of scratch (see
    _closure_scan), so its memory grows with the number of grid points per
    site, not with the number of combinations.  The first best candidate is
    then refined by 50 alternating sweeps of the eg_alternating kernel.
    With grid >= CERTIFIED_GRID the basin resolution is fine enough to
    certify; coarser grids are reported as heuristic.

    For N >= 2 the grid start is then compared with an 8-restart
    eg_alternating run, so restarts_used is 9 (the grid start plus those 8
    restarts) and unconverged is that run's count; for N = 1 they are 1
    and 0.
    """
    n = state.num_sites
    check_eg("bruteforce", n, state.local_dim, grid=grid_points_per_axis)

    if n == 1:
        start = state.amplitudes
    else:
        tensor = _site_tensor(state)
        if n == 2:
            scanned, w = [], tensor
        else:
            grid = _bloch_grid(grid_points_per_axis)
            # Residuals on sites N-3..N-1: the tensor itself (N = 3), or one
            # per grid point on site 0 (N = 4).
            if n == 3:
                residuals = tensor.reshape(1, 2, 4)
            else:
                residuals = (grid.conj() @ tensor.reshape(2, 8)).reshape(-1, 2, 4)
            best, _ = _closure_scan(residuals, grid)
            r, g = divmod(best, grid.shape[0])
            scanned = [grid[r], grid[g]] if n == 4 else [grid[g]]
            w = (grid.conj() @ residuals[r])[g].reshape(2, 2)
        # Overlap against the residual pair is a^H W conj(b), maximized by
        # a = u_max and b = conj(v_max) = vh row.
        u, _, vh = np.linalg.svd(w)
        start = scanned + [u[:, 0], vh[0, :]]
    factors = np.array(start, dtype=complex).reshape(1, n, 2)
    _alternate(state.amplitudes, factors, None, 50)

    maximizer = ProductState(_fix_phases(factors[0]))
    p = abs(product_overlap(maximizer, state)) ** 2

    # Grid-started sweeps converge sublinearly when the optimum is
    # degenerate; random-start alternating does not.  Keeping the better of
    # the two only moves the estimate toward the true maximum, so the grid
    # certification still stands.
    restarts_used, unconverged = 1, 0
    if n >= 2:
        alt = eg_alternating(state, restarts=8, rng_seed=0)
        restarts_used += alt.restarts_used
        unconverged = alt.unconverged
        p_alt = math.exp(-alt.value)
        if p_alt > p:
            p, maximizer = p_alt, alt.maximizer

    cert = CERT_BRUTEFORCE if grid_points_per_axis >= CERTIFIED_GRID else CERT_HEURISTIC
    return EgEstimate(
        value=float(-np.log(p)),
        maximizer=maximizer,
        certification=cert,
        restarts_used=restarts_used,
        unconverged=unconverged,
    )


def eg_estimate(
    state: PureState, method: str, *, restarts: int, grid: int, rng_seed: int
) -> EgEstimate:
    """Exponent estimate by the "alternating" or the "bruteforce" search."""
    if method == "alternating":
        return eg_alternating(state, restarts=restarts, rng_seed=rng_seed)
    if method == "bruteforce":
        return eg_bruteforce(state, grid_points_per_axis=grid)
    raise ValueError(f"unknown eg method {method!r}")


def w_locc_upper(state: PureState, eg: EgEstimate) -> tuple[float, str]:
    """N ln d - E: the ceiling for work certified by local measurement rounds.

    Returns (bound, certification).  When the certification is
    heuristic_local_max the estimate may exceed the true exponent, so the
    returned number may sit below the true ceiling; callers must not treat
    it as a proof.  Raises if the estimate's maximizer does not reproduce
    exp(-value) on this state.
    """
    if eg.maximizer.num_sites != state.num_sites:
        raise ValueError("estimate belongs to a different system size")
    p = abs(product_overlap(eg.maximizer, state)) ** 2
    if abs(p - np.exp(-eg.value)) > 1e-8:
        raise ValueError("estimate does not match state (overlap/value mismatch)")
    bound = state.num_sites * float(np.log(state.local_dim)) - eg.value
    return bound, eg.certification
