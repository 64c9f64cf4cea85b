"""State containers and the small set of linear-algebra primitives everything
else is built on.

Index convention used throughout the package: a pure state of N sites with
local dimension d is stored as a flat vector of length d**N, indexed
little-endian, i.e. the basis label (z_0, z_1, ..., z_{N-1}) sits at flat
index sum_n z_n * d**n.  Site 0 is the fastest-varying digit.  Bitstrings
written as text follow the same rule: character i of the string is the
outcome at site i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIG_CLAMP = 1e-12
# Byte cap on one site_marginals chunk (whole rows, at least one): small
# enough that every site's passes over it read from L2.
_MARGINAL_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class SiteSubset:
    """Strictly increasing tuple of distinct site indices."""

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if any(s < 0 for s in sites):
            raise ValueError(f"negative site index in {sites}")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError(f"site indices must be strictly increasing, got {sites}")

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)


def _as_sites(keep: SiteSubset | Iterable[int]) -> tuple[int, ...]:
    if isinstance(keep, SiteSubset):
        return keep.sites
    return SiteSubset(tuple(keep)).sites


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of ``num_sites`` qudits, little-endian amplitudes."""

    num_sites: int
    local_dim: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if self.local_dim < 2:
            raise ValueError("local_dim must be >= 2")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.local_dim**self.num_sites,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.local_dim}**{self.num_sites},)"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond {NORM_ATOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.local_dim**self.num_sites


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=HERMITIAN_ATOL, rtol=0.0):
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {NORM_ATOL}")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {eigs.min()} below -1e-10")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def make_pure(amplitudes: Sequence[complex], num_sites: int, local_dim: int = 2) -> PureState:
    """Build a PureState, renormalizing when the norm is within 1e-6 of 1.

    Rejects the zero vector and vectors whose norm is off by more than 1e-6,
    so silent large rescalings cannot hide an indexing bug.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (local_dim**num_sites,):
        raise ValueError(
            f"amplitude count {amps.size} does not match {local_dim}**{num_sites}"
        )
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("zero amplitude vector")
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"norm {nrm} deviates from 1 beyond 1e-6; refusing to rescale")
    return PureState(num_sites, local_dim, amps / nrm)


def _matricize(state: PureState, keep: tuple[int, ...]) -> np.ndarray:
    """Reshape amplitudes into a (d**k, d**(N-k)) matrix.

    Rows are indexed little-endian over the kept sites (keep[0] is the fastest
    digit), columns little-endian over the complement in increasing site order.
    """
    n, d = state.num_sites, state.local_dim
    rest = tuple(s for s in range(n) if s not in keep)
    # C-order reshape puts site N-1 on axis 0; transpose to site order first.
    tensor = state.amplitudes.reshape([d] * n).transpose(range(n - 1, -1, -1))
    # Reversing each group makes its first site the fastest C-order digit.
    perm = tuple(reversed(keep)) + tuple(reversed(rest))
    return tensor.transpose(perm).reshape(d ** len(keep), d ** len(rest))


def reduced_density(state: PureState, keep: SiteSubset | Iterable[int]) -> DensityOperator:
    """Partial trace of |psi><psi| onto the kept sites.

    The result is indexed little-endian over the kept sites in increasing
    order, matching the global amplitude convention.
    """
    sites = _as_sites(keep)
    if len(sites) == 0:
        raise ValueError("keep must contain at least one site")
    if sites[-1] >= state.num_sites:
        raise ValueError(f"site {sites[-1]} out of range for {state.num_sites} sites")
    if len(sites) == 1:
        # Single-site marginals are the hot path; avoid the transpose copy.
        n, d, site = state.num_sites, state.local_dim, sites[0]
        t = state.amplitudes.reshape(d ** (n - site - 1), d, d**site)
        return DensityOperator(np.einsum("aib,ajb->ij", t, t.conj()))
    mat = _matricize(state, sites)
    return DensityOperator(mat @ mat.conj().T)


def site_marginals(vectors: np.ndarray, num_sites: int, local_dim: int) -> np.ndarray:
    """Single-site marginals of a stack of state vectors.

    vectors has shape (L, d**N); the result has shape (L, N, d, d), entry
    [l, n] being the partial trace of |v_l><v_l| onto site n.  This is the
    batched kernel behind w_local and protocol scoring, so it validates
    nothing; reduced_density is the checked single-state entry point.

    The stack is walked in chunks of whole rows within _MARGINAL_CHUNK_BYTES
    (at least one row), so every site's passes over a chunk stay in cache and
    only the chunk is conjugated.  Diagonal entries are real dot products
    over the chunk's float64 view; each pair i > j takes one complex einsum.
    A row larger than a chunk is not conjugated whole: _pair_in_pieces sums
    each pair over pieces of the row within a chunk.
    """
    n, d = num_sites, local_dim
    count, dim = vectors.shape
    out = np.empty((count, n, d, d), dtype=complex)
    rows = max(1, _MARGINAL_CHUNK_BYTES // (16 * dim))
    for lo in range(0, count, rows):
        chunk = np.ascontiguousarray(vectors[lo : lo + rows], dtype=complex)
        c, flat = len(chunk), chunk.view(float)
        conj = chunk.conj() if 16 * dim <= _MARGINAL_CHUNK_BYTES else None
        for site in range(n):
            shape = (c, d ** (n - site - 1), d, d**site)
            t = chunk.reshape(shape)
            tc = None if conj is None else conj.reshape(shape)
            f = flat.reshape(c, shape[1], d, 2 * d**site)
            block = out[lo : lo + c, site]
            for i in range(d):
                block[:, i, i] = np.einsum("lak,lak->l", f[:, :, i], f[:, :, i])
                for j in range(i):
                    if tc is None:
                        entry = _pair_in_pieces(t, i, j)
                    else:
                        entry = np.einsum("lab,lab->l", t[:, :, i], tc[:, :, j])
                    block[:, i, j] = entry
                    block[:, j, i] = entry.conj()
    return out


def _pair_in_pieces(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """sum over (a, b) of t[:, a, i, b] * conj(t[:, a, j, b]) for a one-row
    stack t of shape (1, A, d, B), conjugating pieces of site value j of at
    most _MARGINAL_CHUNK_BYTES each: blocks of whole B-runs along A, or runs
    of B when one run is larger than that."""
    _, a, _, b = t.shape
    per = max(1, _MARGINAL_CHUNK_BYTES // 16)
    step_a, step_b = max(1, per // b), min(b, per)
    total = np.zeros(1, dtype=complex)
    for a0 in range(0, a, step_a):
        for b0 in range(0, b, step_b):
            x = t[:, a0 : a0 + step_a, i, b0 : b0 + step_b]
            y = t[:, a0 : a0 + step_a, j, b0 : b0 + step_b]
            total += np.einsum("lab,lab->l", x, y.conj())
    return total


def _entropy(values: np.ndarray) -> np.ndarray:
    """-sum(v ln v) over the last axis in nats; entries <= 1e-12 contribute 0
    and each result is clamped at 0."""
    kept = np.where(values > EIG_CLAMP, values, 1.0)
    return np.maximum(-(kept * np.log(kept)).sum(axis=-1), 0.0)


def site_entropies(marginals: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in nats of a stack of density matrices
    (..., d, d), through one batched eigvalsh; no validation."""
    return _entropy(np.linalg.eigvalsh(marginals))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -sum(lam ln lam) in nats; eigenvalues <= 1e-12 contribute 0."""
    return float(_entropy(rho.eigenvalues()))


def shannon_entropy(dist: dict | np.ndarray) -> float:
    """Shannon entropy in nats of a label -> probability map, or of an array
    of probabilities."""
    values = list(dist.values()) if isinstance(dist, dict) else dist
    probs = np.asarray(values, dtype=float)
    if probs.size and probs.min() < 0.0:
        raise ValueError(f"negative probability {probs.min()}")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1 within 1e-9")
    return float(_entropy(probs))


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; conjugates the first argument."""
    if a.dim != b.dim or a.local_dim != b.local_dim:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_kraus_vector(
    amplitudes: np.ndarray, num_sites: int, local_dim: int, site: int, kraus: np.ndarray
) -> np.ndarray:
    """Apply a single-site operator to a raw (possibly unnormalized) vector.

    Leading axes are batch axes that broadcast: amplitudes (..., d**N) and
    kraus (..., d, d), so B vectors of shape (B, 1, d**N) take a set of k
    operators (k, d, d) in one call, giving (B, k, d**N).
    """
    d = local_dim
    if kraus.shape[-2:] != (d, d):
        raise ValueError(f"Kraus operator shape {kraus.shape}, expected (..., {d}, {d})")
    if not 0 <= site < num_sites:
        raise ValueError(f"site {site} out of range")
    t = amplitudes.reshape(amplitudes.shape[:-1] + (d ** (num_sites - site - 1), d, d**site))
    out = np.einsum("...ij,...ajb->...aib", kraus, t)
    return out.reshape(out.shape[:-3] + (-1,))


def apply_kraus(state: PureState, site: int, kraus: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply one Kraus operator at a site.

    Returns the unnormalized post-measurement vector and its squared norm,
    which is the outcome probability when the Kraus set is complete.
    """
    out = apply_kraus_vector(
        state.amplitudes, state.num_sites, state.local_dim, site, np.asarray(kraus, dtype=complex)
    )
    prob = float(np.vdot(out, out).real)
    return out, prob


def apply_two_site_vector(
    amplitudes: np.ndarray, num_sites: int, local_dim: int, site: int, gate: np.ndarray
) -> np.ndarray:
    """Apply a two-site gate on (site, site+1).

    The gate is a (d**2, d**2) matrix over the pair basis |z_site + d*z_{site+1}>,
    i.e. little-endian within the pair, matching the global convention.
    Leading axes are batch axes that broadcast: amplitudes (..., d**N) and
    gate (..., d**2, d**2), so a stack of S vectors takes one gate or S gates
    in one batched matmul.
    """
    d = local_dim
    if site < 0 or site + 1 >= num_sites:
        raise ValueError(f"pair ({site}, {site + 1}) out of range")
    if gate.shape[-2:] != (d * d, d * d):
        raise ValueError(f"gate shape {gate.shape}, expected (..., {d * d}, {d * d})")
    t = amplitudes.reshape(amplitudes.shape[:-1] + (d ** (num_sites - site - 2), d * d, d**site))
    out = gate[..., None, :, :] @ t
    return out.reshape(out.shape[:-3] + (-1,))
