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
    SiteSubset,
    _as_sites,
    _matricize,
    site_entropies,
    site_marginals,
    von_neumann_entropy,
)

CERT_BRUTEFORCE = "bruteforce_certified"
CERT_SCHMIDT = "schmidt_exact"
CERT_HEURISTIC = "heuristic_local_max"

# eg search defaults, read by lab and the CLI: alternating restarts, and
# bruteforce grid points per axis.  A bruteforce grid of at least
# CERTIFIED_GRID points per axis is labelled bruteforce_certified; the
# default grid is the coarsest such grid.
DEFAULT_RESTARTS = 32
CERTIFIED_GRID = 24
DEFAULT_GRID = CERTIFIED_GRID


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


def _site_tensor(state: PureState) -> np.ndarray:
    """Amplitudes as a rank-N tensor with axis n = site n."""
    n, d = state.num_sites, state.local_dim
    return state.amplitudes.reshape([d] * n).transpose(range(n - 1, -1, -1))


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


def _fix_phases(factors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rephase each factor so its largest-magnitude entry is real positive."""
    out = []
    for f in factors:
        idx = int(np.argmax(np.abs(f)))
        ph = f[idx] / abs(f[idx]) if abs(f[idx]) > 0 else 1.0
        out.append(f / ph)
    return tuple(out)


# Restarts are swept in chunks whose suffix contractions hold at most this
# many amplitudes together (32 MiB), the cap lab.run_tail uses for its chunks.
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
    if restarts < 1 or max_iters < 1 or tol <= 0:
        raise ValueError("restarts and max_iters must be >= 1 and tol > 0")
    n, d = state.num_sites, state.local_dim
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


def eg_schmidt(state: PureState, cut: SiteSubset | tuple = (0,)) -> float:
    """-ln(sigma_max^2) across the given bipartition.

    Exact product-overlap exponent for two-site states; for more sites it is
    a lower bound on the exponent (the best bipartite product beats any full
    product across the same cut).
    """
    sites = _as_sites(cut)
    if not sites or sites[-1] >= state.num_sites or len(sites) >= state.num_sites:
        raise ValueError("cut must be a nonempty strict subset of sites")
    mat = _matricize(state, sites)
    smax = float(np.linalg.svd(mat, compute_uv=False)[0])
    return float(-np.log(smax**2))


def _bloch_grid(points_per_axis: int) -> np.ndarray:
    """(G^2, 2) array of qubit states over a polar x azimuthal grid."""
    theta = np.linspace(0.0, np.pi, points_per_axis)
    phi = np.linspace(0.0, 2 * np.pi, points_per_axis, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    states = np.stack(
        [np.cos(th / 2), np.sin(th / 2) * np.exp(1j * ph)], axis=-1
    )
    return states.reshape(-1, 2)


def _batch_sigma_max_sq(w: np.ndarray) -> np.ndarray:
    """Largest squared singular value of a batch of 2x2 matrices."""
    t = (np.abs(w) ** 2).sum(axis=(-2, -1))
    det = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    disc = np.maximum(t**2 - 4 * np.abs(det) ** 2, 0.0)
    return (t + np.sqrt(disc)) / 2


def eg_bruteforce(state: PureState, grid_points_per_axis: int = DEFAULT_GRID) -> EgEstimate:
    """Certified small-system search for the product-overlap exponent.

    Qubits only, at most 4 sites.  The first N-2 sites are scanned over a
    Bloch-sphere grid (grid_points_per_axis polar x azimuthal points each);
    for every grid combination the final two sites are closed exactly through
    the top singular value of the residual 2x2 matrix, which dominates any
    grid on those sites.  The best candidate is then refined by 50
    alternating sweeps of the eg_alternating kernel.  With grid >=
    CERTIFIED_GRID the basin resolution is fine enough to certify; coarser
    grids are reported as heuristic.

    For N >= 2 the grid start is then compared with an 8-restart
    eg_alternating run, so restarts_used is 9 (the grid start plus those 8
    restarts) and unconverged is that run's count; for N = 1 they are 1
    and 0.
    """
    if state.local_dim != 2:
        raise ValueError("bruteforce search is qubit-only")
    n = state.num_sites
    if n > 4:
        raise ValueError("bruteforce search limited to 4 sites")
    if grid_points_per_axis < 2:
        raise ValueError("need at least 2 grid points per axis")

    if n == 1:
        start = state.amplitudes
    else:
        grid = _bloch_grid(grid_points_per_axis)
        g2 = grid.shape[0]
        tensor = _site_tensor(state)
        if n == 2:
            w = tensor[np.newaxis, ...]
        elif n == 3:
            w = (grid.conj() @ tensor.reshape(2, 4)).reshape(g2, 2, 2)
        else:
            t1 = (grid.conj() @ tensor.reshape(2, 8)).reshape(g2, 2, 4)
            w = (grid.conj() @ t1).reshape(g2 * g2, 2, 2)
        sig = _batch_sigma_max_sq(w)
        best = int(np.argmax(sig))
        # w[best] pairs with grid point best (N = 3), or with grid points
        # divmod(best, g2) on sites 0 and 1 (N = 4).
        scanned = {2: (), 3: (best,), 4: divmod(best, g2)}[n]
        # Overlap against the residual pair is a^H W conj(b), maximized by
        # a = u_max and b = conj(v_max) = vh row.
        u, _, vh = np.linalg.svd(w[best])
        start = [grid[q] for q in scanned] + [u[:, 0], vh[0, :]]
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
