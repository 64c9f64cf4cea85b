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
    at construction sites and re-checked by w_locc_upper.
    """

    value: float
    maximizer: ProductState
    certification: str
    restarts_used: int

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


def _fix_phases(factors: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Rephase each factor so its largest-magnitude entry is real positive."""
    out = []
    for f in factors:
        idx = int(np.argmax(np.abs(f)))
        ph = f[idx] / abs(f[idx]) if abs(f[idx]) > 0 else 1.0
        out.append(f / ph)
    return tuple(out)


def _sweep(tensor: np.ndarray, factors: list[np.ndarray]) -> float:
    """One in-place alternating pass over all sites; returns the overlap.

    Each site update is the exact maximizer given the others, so the overlap
    can only grow; the pass raises RuntimeError if it ever falls by more
    than 1e-9.
    """
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


def eg_alternating(
    state: PureState,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iters: int = 1000,
    rng_seed: int | None = None,
) -> EgEstimate:
    """Estimate the product-overlap exponent by alternating optimization.

    Each restart starts from an independent random product state (restart r
    uses seed (rng_seed, r), so results with fewer restarts are a prefix of
    results with more) and sweeps sites until the overlap gain drops below
    tol or max_iters sweeps elapse.  The best overlap across restarts wins;
    ties keep the earlier restart.

    On two-site states the result is cross-checked against the exact Schmidt
    value and certified schmidt_exact when they agree to 1e-8; otherwise the
    certification is heuristic_local_max, meaning the reported exponent is
    an upper bound on the true one by an unknown margin.
    """
    if restarts < 1 or max_iters < 1 or tol <= 0:
        raise ValueError("restarts and max_iters must be >= 1 and tol > 0")
    n, d = state.num_sites, state.local_dim
    tensor = _site_tensor(state)
    best_overlap, best_factors = -1.0, None
    for r in range(restarts):
        rng = np.random.default_rng((rng_seed, r) if rng_seed is not None else None)
        factors = []
        for _ in range(n):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(f / np.linalg.norm(f))
        prev = 0.0
        for _ in range(max_iters):
            cur = _sweep(tensor, factors)
            if cur - prev < tol:
                prev = cur
                break
            prev = cur
        if prev > best_overlap:
            best_overlap, best_factors = prev, [f.copy() for f in factors]
    maximizer = ProductState(_fix_phases(best_factors))
    # Recompute from the maximizer so value and maximizer agree exactly.
    p = abs(product_overlap(maximizer, state)) ** 2
    value = float(-np.log(p))
    cert = CERT_HEURISTIC
    if n == 2:
        exact = eg_schmidt(state, (0,))
        if abs(value - exact) <= 1e-8:
            cert = CERT_SCHMIDT
    return EgEstimate(value=value, maximizer=maximizer, certification=cert, restarts_used=restarts)


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


def eg_bruteforce(state: PureState, grid_points_per_axis: int = 24) -> EgEstimate:
    """Certified small-system search for the product-overlap exponent.

    Qubits only, at most 4 sites.  The first N-2 sites are scanned over a
    Bloch-sphere grid (grid_points_per_axis polar x azimuthal points each);
    for every grid combination the final two sites are closed exactly through
    the top singular value of the residual 2x2 matrix, which dominates any
    grid on those sites.  The best candidate is then refined by 50
    alternating sweeps.  With grid >= 24 the basin resolution is fine enough
    to certify; coarser grids are reported as heuristic.

    For N >= 2 the grid start is then compared with an 8-restart
    eg_alternating run, so restarts_used is 9 (the grid start plus those 8
    restarts); for N = 1 it is 1.
    """
    if state.local_dim != 2:
        raise ValueError("bruteforce search is qubit-only")
    n = state.num_sites
    if n > 4:
        raise ValueError("bruteforce search limited to 4 sites")
    if grid_points_per_axis < 2:
        raise ValueError("need at least 2 grid points per axis")

    tensor = _site_tensor(state)
    if n == 1:
        factors = [state.amplitudes.copy()]
    else:
        grid = _bloch_grid(grid_points_per_axis)
        if n == 2:
            w = tensor[np.newaxis, ...]
            combos = [()]
        elif n == 3:
            w = np.einsum("qa,abc->qbc", grid.conj(), tensor)
            combos = [(q,) for q in range(grid.shape[0])]
        else:
            t1 = np.einsum("qa,abcd->qbcd", grid.conj(), tensor)
            w = np.einsum("rb,qbcd->qrcd", grid.conj(), t1).reshape(-1, 2, 2)
            g2 = grid.shape[0]
            # w[i] pairs with grid sites (i // g2, i % g2) after the reshape.
            combos = [(i // g2, i % g2) for i in range(w.shape[0])]
        sig = _batch_sigma_max_sq(w)
        best = int(np.argmax(sig))
        # Overlap against the residual pair is a^H W conj(b), maximized by
        # a = u_max and b = conj(v_max) = vh row.
        u, _, vh = np.linalg.svd(w[best])
        closure = [u[:, 0], vh[0, :]]
        factors = [grid[c] for c in combos[best]] + closure

    for _ in range(50):
        _sweep(tensor, factors)

    maximizer = ProductState(_fix_phases(factors))
    p = abs(product_overlap(maximizer, state)) ** 2

    # Grid-started sweeps converge sublinearly when the optimum is
    # degenerate; random-start alternating does not.  Keeping the better of
    # the two only moves the estimate toward the true maximum, so the grid
    # certification still stands.
    restarts_used = 1
    if n >= 2:
        alt = eg_alternating(state, restarts=8, rng_seed=0)
        restarts_used += alt.restarts_used
        p_alt = math.exp(-alt.value)
        if p_alt > p:
            p, maximizer = p_alt, alt.maximizer

    cert = CERT_BRUTEFORCE if grid_points_per_axis >= 24 else CERT_HEURISTIC
    return EgEstimate(
        value=float(-np.log(p)),
        maximizer=maximizer,
        certification=cert,
        restarts_used=restarts_used,
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
