"""Samplers and constructors for the state families under study.

All samplers are deterministic functions of an explicit seed.  Batch-style
callers that want independent streams should derive per-sample seeds as
base_seed + sample_index; nothing here keeps hidden RNG state.

Bitstrings follow the little-endian convention of qstate: character i of a
string is the digit at site i, and the string maps to flat index
sum_i int(s[i]) * d**i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .graphs import Graph, read_lines
from .qstate import PureState, apply_two_site_vector, make_pure

_COMPLEX_BYTES = 16
# Byte cap on one sample_circuits chunk: its gate stack (S*G*d**4 entries)
# plus its state stack (S*d**N entries).  The QR and the draw add a few
# transient copies of the gate stack.
_CIRCUIT_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class SubsetSpec:
    """A set of distinct length-N bitstrings defining a uniform superposition."""

    num_sites: int
    support: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        support = tuple(self.support)
        if not support:
            raise ValueError("support must be nonempty")
        if len(set(support)) != len(support):
            raise ValueError("support contains duplicate bitstrings")
        for s in support:
            if len(s) != self.num_sites or set(s) - {"0", "1"}:
                raise ValueError(f"bad bitstring {s!r} for {self.num_sites} sites")
        object.__setattr__(self, "support", tuple(sorted(support)))

    @property
    def k(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class CircuitSpec:
    """Brickwork circuit: `depth` alternating layers of Haar two-site gates."""

    num_sites: int
    depth: int
    rng_seed: int
    local_dim: int = 2

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValueError("circuit needs at least 2 sites")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


def bitstring_index(bits: str, local_dim: int = 2) -> int:
    """Flat index of a digit string, site 0 as the least significant digit."""
    return sum(int(ch) * local_dim**i for i, ch in enumerate(bits))


def index_to_bitstring(index: int, num_sites: int, local_dim: int = 2) -> str:
    return "".join(str((index // local_dim**i) % local_dim) for i in range(num_sites))


def _haar_from_normals(x: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals x of shape (..., 2, m, m): real
    parts x[..., 0, :, :], imaginary parts x[..., 1, :, :].

    One stacked QR of the complex Ginibre matrices; each R diagonal is
    rephased to make the distribution exactly invariant.
    """
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix whose
    dim**2 real parts, then dim**2 imaginary parts, come from rng."""
    return _haar_from_normals(rng.standard_normal((2, dim, dim)))


def sample_haar(num_sites: int, local_dim: int = 2, seed: int = 0) -> PureState:
    """Uniform (Haar) random pure state: normalized i.i.d. complex Gaussians."""
    rng = np.random.default_rng(seed)
    dim = local_dim**num_sites
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(num_sites, local_dim, v / np.linalg.norm(v))


def sample_circuits(spec: CircuitSpec, count: int) -> Iterator[np.ndarray]:
    """Yield the brickwork circuits seeded spec.rng_seed + i, i < count, run
    on |0...0>, as (S, d**N) amplitude stacks in seed order.

    Layer l couples pairs (i, i+1) for i = l%2, l%2 + 2, ... left to right.
    Sample i draws its G gates from default_rng(spec.rng_seed + i) as one
    standard_normal((G, 2, d**2, d**2)) block, which is the stream of
    drawing gate by gate: d**4 real parts, then d**4 imaginary parts, per
    gate in order.  A chunk of S samples runs together: one stacked QR for
    its gates and one batched matmul per gate position.  S is sized so the
    chunk's gate and state stacks stay within _CIRCUIT_CHUNK_BYTES; only a
    sample whose gates alone exceed it draws them in several blocks.
    """
    n, d, m = spec.num_sites, spec.local_dim, spec.local_dim**2
    sites = [i for layer in range(spec.depth) for i in range(layer % 2, n - 1, 2)]
    per_sample = _COMPLEX_BYTES * (len(sites) * m * m + d**n)
    chunk = max(1, _CIRCUIT_CHUNK_BYTES // per_sample)
    end = spec.rng_seed + count
    for lo in range(spec.rng_seed, end, chunk):
        rngs = [np.random.default_rng(s) for s in range(lo, min(lo + chunk, end))]
        amps = np.zeros((len(rngs), d**n), dtype=complex)
        amps[:, 0] = 1.0
        step = max(1, _CIRCUIT_CHUNK_BYTES // (_COMPLEX_BYTES * m * m * len(rngs)))
        for first in range(0, len(sites), step):
            block = sites[first : first + step]
            x = np.stack([rng.standard_normal((len(block), 2, m, m)) for rng in rngs])
            gates = _haar_from_normals(x)
            for k, site in enumerate(block):
                amps = apply_two_site_vector(amps, n, d, site, gates[:, k])
        nrm = np.linalg.norm(amps, axis=1)
        bad = np.flatnonzero(np.abs(nrm - 1.0) > 1e-9)
        if bad.size:
            i = int(bad[0])
            raise ArithmeticError(f"circuit seeded {lo + i} lost normalization: norm {nrm[i]}")
        yield amps


def sample_circuit(spec: CircuitSpec) -> PureState:
    """The brickwork circuit seeded spec.rng_seed on |0...0>: the one-sample
    case of sample_circuits."""
    amps = next(sample_circuits(spec, 1))
    return make_pure(amps[0], spec.num_sites, spec.local_dim)


def graph_state(g: Graph) -> PureState:
    """Qubit graph state: amplitude 2^(-N/2) * (-1)^(number of edges whose
    endpoints both read 1), for every bitstring."""
    n = g.num_vertices
    idx = np.arange(2**n, dtype=np.int64)
    parity = np.zeros(2**n, dtype=np.int64)
    for i, j in g.edges:
        parity += ((idx >> i) & 1) & ((idx >> j) & 1)
    amps = ((-1.0) ** (parity % 2)) / np.sqrt(2.0**n)
    return PureState(n, 2, amps.astype(complex))


def subset_state(spec: SubsetSpec) -> PureState:
    """Uniform superposition 1/sqrt(K) over the support bitstrings."""
    amps = np.zeros(2**spec.num_sites, dtype=complex)
    for s in spec.support:
        amps[bitstring_index(s)] = 1.0
    return make_pure(amps / np.sqrt(spec.k), spec.num_sites)


def sample_subset(num_sites: int, k: int, seed: int) -> SubsetSpec:
    """Uniformly random k-subset of {0,1}^num_sites.

    Uses a full partial shuffle when the space is small and rejection
    sampling of the smaller side otherwise; deterministic under the seed.
    """
    total = 2**num_sites
    if not 1 <= k <= total:
        raise ValueError(f"k={k} out of range for {num_sites} sites")
    rng = np.random.default_rng(seed)
    if total <= 2**22:
        picks = rng.permutation(total)[:k]
    else:
        want = min(k, total - k)
        seen: set[int] = set()
        while len(seen) < want:
            for x in rng.integers(0, total, size=2 * (want - len(seen))):
                if len(seen) < want:
                    seen.add(int(x))
        if want == k:
            picks = np.fromiter(seen, dtype=np.int64)
        else:
            excl = seen
            picks = np.fromiter((x for x in range(total) if x not in excl), dtype=np.int64)
    support = tuple(index_to_bitstring(int(x), num_sites) for x in picks)
    return SubsetSpec(num_sites, support)


def frame_potential(states: list[PureState], t: int) -> float:
    """Mean of |<a|b>|^(2t) over distinct ordered sample pairs."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(states) < 2:
        raise ValueError("need at least two states")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("states have mismatched dimensions")
    v = np.stack([s.amplitudes for s in states])
    gram = np.abs(v.conj() @ v.T) ** 2
    np.fill_diagonal(gram, 0.0)
    m = len(states)
    return float((gram**t).sum() / (m * (m - 1)))


def haar_moment(t: int, dim: int) -> float:
    """E|<v|psi>|^(2t) over Haar psi: t! (dim-1)! / (t+dim-1)!.

    This is also the Haar value of the order-t frame potential.
    """
    out = 1.0
    for i in range(t):
        out *= (i + 1) / (dim + i)
    return out


def basis_state(digits: str, local_dim: int = 2) -> PureState:
    """Computational basis state from a digit string (site i = character i)."""
    n = len(digits)
    amps = np.zeros(local_dim**n, dtype=complex)
    amps[bitstring_index(digits, local_dim)] = 1.0
    return PureState(n, local_dim, amps)


def zero_state(num_sites: int, local_dim: int = 2) -> PureState:
    return basis_state("0" * num_sites, local_dim)


def plus_state(num_sites: int) -> PureState:
    dim = 2**num_sites
    return PureState(num_sites, 2, np.full(dim, 1 / np.sqrt(dim), dtype=complex))


def ghz_state(num_sites: int, local_dim: int = 2) -> PureState:
    amps = np.zeros(local_dim**num_sites, dtype=complex)
    for j in range(local_dim):
        amps[bitstring_index(str(j) * num_sites, local_dim)] = 1 / np.sqrt(local_dim)
    return PureState(num_sites, local_dim, amps)


def w_state(num_sites: int) -> PureState:
    if num_sites < 2:
        raise ValueError("w_state needs at least 2 sites")
    amps = np.zeros(2**num_sites, dtype=complex)
    for i in range(num_sites):
        amps[2**i] = 1 / np.sqrt(num_sites)
    return PureState(num_sites, 2, amps)


def save_subset_spec(spec: SubsetSpec, path: str | Path) -> None:
    """One bitstring per line."""
    Path(path).write_text("\n".join(spec.support) + "\n")


def load_subset_spec(path: str | Path) -> SubsetSpec:
    """Read save_subset_spec's format; # starts a comment (graphs.read_lines)."""
    lines = [text for _, text in read_lines(path)]
    if not lines:
        raise ValueError(f"{path}: no bitstrings found")
    return SubsetSpec(len(lines[0]), tuple(lines))
