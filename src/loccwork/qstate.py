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

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIG_CLAMP = 1e-12
# Byte cap on one site_marginals chunk (whole rows, at least one): small
# enough that every site's passes over it read from L2.
_MARGINAL_CHUNK_BYTES = 2**20
# _apply_block's operator-first layout runs where b = d**site <= min(A,
# _OPERATOR_FIRST_B): there the left-multiply layout's A products per vector
# are so small that each costs a BLAS call and little else.  Its piece and
# product copies share one scratch buffer of _BLOCK_SCRATCH_BYTES per thread
# (_SCRATCH), kept between calls; a 256 KiB chunk stays in L2.
_OPERATOR_FIRST_B = 8
_BLOCK_SCRATCH_BYTES = 2**18
_SCRATCH = threading.local()


class StateSpecError(ValueError):
    """An input no run can use; the checks that raise it allocate nothing."""


def _site_list(keep: Iterable, num_sites: int) -> tuple[int, ...] | None:
    """The sites of keep as a tuple of ints when every entry is an integer
    (operator.index: numpy ints pass, 0.7 does not) in 0..num_sites-1, they
    are strictly increasing and there is at least one; otherwise None."""
    try:
        sites = tuple(operator.index(s) for s in keep)
    except TypeError:
        return None
    if (not sites or sites[0] < 0 or sites[-1] >= num_sites
            or any(b <= a for a, b in zip(sites, sites[1:]))):
        return None
    return sites


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
        raise ValueError(f"amplitude count {amps.size} does not match {local_dim}**{num_sites}")
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("zero amplitude vector")
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"norm {nrm} deviates from 1 beyond 1e-6; refusing to rescale")
    return PureState(num_sites, local_dim, amps / nrm)


def _site_tensor(state: PureState) -> np.ndarray:
    """Amplitudes as a rank-N view with axis n = site n."""
    n, d = state.num_sites, state.local_dim
    # C-order reshape puts site N-1 on axis 0.
    return state.amplitudes.reshape([d] * n).transpose(range(n - 1, -1, -1))


def _matricize(state: PureState, keep: tuple[int, ...]) -> np.ndarray:
    """Reshape amplitudes into a (d**k, d**(N-k)) matrix.

    Rows are indexed little-endian over the kept sites (keep[0] is the fastest
    digit), columns little-endian over the complement in increasing site order.
    """
    n, d = state.num_sites, state.local_dim
    rest = tuple(s for s in range(n) if s not in keep)
    # Reversing each group makes its first site the fastest C-order digit.
    perm = tuple(reversed(keep)) + tuple(reversed(rest))
    return _site_tensor(state).transpose(perm).reshape(d ** len(keep), d ** len(rest))


def reduced_density(state: PureState, keep: Iterable[int]) -> DensityOperator:
    """Partial trace of |psi><psi| onto the kept sites, which _site_list
    judges (ValueError when it rejects them).

    The result is indexed little-endian over the kept sites in increasing
    order, matching the global amplitude convention.
    """
    sites = _site_list(keep, state.num_sites)
    if sites is None:
        raise ValueError(f"keep must list integer sites of 0..{state.num_sites - 1} in "
                         f"increasing order, at least one; got {keep!r}")
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
    only the chunk is conjugated.  Diagonal entries take one of two routes.
    The low sites, the most whose digit table fits in a quarter of a chunk
    (_table_sites: 10 qubits at 1 MiB), take all theirs from one BLAS product:
    p = |chunk|^2, summed over the digits above them, times the 0/1 table
    (_digit_table).  A per-site dot product there would run over inner runs
    of only d**site amplitudes.  Higher sites, whose runs are long, take real
    dot products over the chunk's float64 view.  Each pair i > j takes one
    complex einsum.  A row larger than a chunk is not conjugated whole, and
    no p is built for it: every site takes the dot products, and
    _pair_in_pieces sums each pair over pieces of the row within a chunk.
    """
    n, d = num_sites, local_dim
    count, dim = vectors.shape
    out = np.empty((count, n, d, d), dtype=complex)
    rows = max(1, _MARGINAL_CHUNK_BYTES // (16 * dim))
    whole_rows = 16 * dim <= _MARGINAL_CHUNK_BYTES
    low = _table_sites(n, d) if whole_rows else 0
    for lo in range(0, count, rows):
        chunk = np.ascontiguousarray(vectors[lo : lo + rows], dtype=complex)
        c, flat = len(chunk), chunk.view(float)
        if low:
            squares = np.square(flat)
            p = squares[:, 0::2] + squares[:, 1::2]
            del squares  # this and p are freed before the chunk is conjugated
            if d**low < dim:
                p = p.reshape(c, -1, d**low).sum(axis=1)
            diagonals = (p @ _digit_table(d, low)).reshape(c, low, d)
            del p
            for i in range(d):
                out[lo : lo + c, :low, i, i] = diagonals[:, :, i]
        conj = chunk.conj() if whole_rows else None
        for site in range(n):
            shape = (c, d ** (n - site - 1), d, d**site)
            t = chunk.reshape(shape)
            tc = None if conj is None else conj.reshape(shape)
            f = flat.reshape(c, shape[1], d, 2 * d**site)
            block = out[lo : lo + c, site]
            for i in range(d):
                if site >= low:
                    block[:, i, i] = np.einsum("lak,lak->l", f[:, :, i], f[:, :, i])
                for j in range(i):
                    if tc is None:
                        entry = _pair_in_pieces(t, i, j)
                    else:
                        entry = np.einsum("lab,lab->l", t[:, :, i], tc[:, :, j])
                    block[:, i, j] = entry
                    block[:, j, i] = entry.conj()
    return out


def _table_sites(num_sites: int, local_dim: int) -> int:
    """How many low sites site_marginals gives the digit table: the most, up to
    num_sites, whose float64 table fits in a quarter of _MARGINAL_CHUNK_BYTES."""
    low = 0
    while low < num_sites and 8 * (low + 1) * local_dim ** (low + 2) <= _MARGINAL_CHUNK_BYTES // 4:
        low += 1
    return low


@functools.cache
def _digit_table(local_dim: int, low: int) -> np.ndarray:
    """Read-only 0/1 table of shape (d**low, low * d): entry [k, s * d + i] is 1
    when digit s of k (little-endian, base d) is i, so probabilities over the
    low sites' joint values times the table are each site's diagonal."""
    d = local_dim
    digits = np.arange(d**low)[:, np.newaxis] // d ** np.arange(low) % d
    table = (digits[:, :, np.newaxis] == np.arange(d)).reshape(d**low, low * d).astype(float)
    table.flags.writeable = False
    return table


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
    (..., d, d); no validation.

    Qubit marginals (d == 2) take their two eigenvalues in closed form,
    d >= 3 one batched eigvalsh (see _spectra).  LAPACK pays a fixed cost per
    matrix: on the 10 240 qubit marginals of 1 024 leaves of N = 10 the
    closed form takes 0.2 ms against eigvalsh's 5.6 ms.  The eigenvalues
    agree with eigvalsh's to about 1e-15; von_neumann_entropy, the checked
    single-matrix path, stays on eigvalsh.
    """
    return _entropy(_spectra(marginals))


def _spectra(marginals: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian (..., d, d) matrices, read
    from the lower triangle as np.linalg.eigvalsh does: for d == 2,
    t/2 -+ hypot((a - c)/2, |b|) for [[a, b*], [b, c]] of trace t; for d >= 3,
    one batched eigvalsh."""
    if marginals.shape[-1] != 2:
        return np.linalg.eigvalsh(marginals)
    a, c = marginals[..., 0, 0].real, marginals[..., 1, 1].real
    half, radius = (a + c) / 2, np.hypot((a - c) / 2, np.abs(marginals[..., 1, 0]))
    return np.stack([half - radius, half + radius], axis=-1)


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


def _fix_phases(factors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rephase each factor so its largest-magnitude entry is real positive."""
    out = []
    for f in factors:
        idx = int(np.argmax(np.abs(f)))
        ph = f[idx] / abs(f[idx]) if abs(f[idx]) > 0 else 1.0
        out.append(f / ph)
    return tuple(out)


def _apply_block(amps: np.ndarray, n: int, d: int, site: int, width: int, op: np.ndarray):
    """One matmul applies a (..., e, m) map to the m = d**width sites from `site`
    on: (..., d**N) vectors give (..., e * d**(N - width)).  Three layouts,
    picked from the site and the block sizes alone, never from the batch size,
    so a batched call equals its per-vector calls bit for bit.  With A =
    d**(N - site - width) and b = d**site:

    - site 0, the fastest axis: the (..., A, m) view times the map's
      transpose, one GEMM per vector, not A matrix-vector products; a single
      (e, m) map folds every leading axis into one GEMM.
    - site > 0, b <= min(A, _OPERATOR_FIRST_B): operator first, one (e, m) @
      (m, A * b) GEMM per vector on a copy with the m axis moved first, then
      moved back (_apply_operator_first).  Here each of the A products of the
      left-multiply layout is a BLAS call of at most 8 columns.
    - otherwise the map left-multiplies the (..., A, m, b) view: A GEMMs of b
      columns per vector, which at larger b beat the two copies.
    """
    a, m, b = d ** (n - site - width), d**width, d**site
    shape = amps.shape[:-1] + (a, m)
    if site == 0 and op.ndim == 2:
        out = amps.reshape(-1, m) @ op.T
        return out.reshape(amps.shape[:-1] + (-1,))
    if site == 0:
        out = amps.reshape(shape) @ np.swapaxes(op, -1, -2)
        return out.reshape(out.shape[:-2] + (-1,))
    if b <= min(a, _OPERATOR_FIRST_B):
        out = _apply_operator_first(amps.reshape(shape + (b,)), op)
    else:
        out = op[..., np.newaxis, :, :] @ amps.reshape(shape + (b,))
    return out.reshape(out.shape[:-3] + (-1,))


def _block_scratch(nbytes: int) -> np.ndarray:
    """A byte buffer for _apply_operator_first's piece and product: this
    thread's one buffer of _BLOCK_SCRATCH_BYTES, kept between calls (threads
    do not share it), or a new one when a chunk needs more.  Allocating the
    scratch on every call instead made glibc trim and regrow the heap: about
    2 700 more page faults per pass of perfbench's protocol-trees workload."""
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.nbytes < nbytes:
        buffer = np.empty(max(nbytes, _BLOCK_SCRATCH_BYTES), dtype=np.uint8)
        if nbytes <= _BLOCK_SCRATCH_BYTES:
            _SCRATCH.buffer = buffer
    return buffer


def _apply_operator_first(x: np.ndarray, op: np.ndarray) -> np.ndarray:
    """op (..., e, m) on x (..., A, m, b), giving (..., A, e, b): per vector, one
    (e, m) @ (m, span * b) GEMM on each piece of `span` values of A, copied
    with m first into scratch, and the product moved back into the output.
    span depends on the block sizes only, so every call makes the same GEMMs
    per vector.  Rows of the first batch axis go together while a chunk's
    piece and product fit in _BLOCK_SCRATCH_BYTES; a chunk is at least one
    row, with every map of its later batch axes.
    """
    a, m, b = x.shape[-3:]
    e = op.shape[-2]
    batch = np.broadcast_shapes(x.shape[:-3], op.shape[:-2])
    if not batch:
        return _apply_operator_first(x[np.newaxis], op)[0]
    dtype = np.result_type(x, op)
    per_a = (m + e) * b * dtype.itemsize  # piece + product, one vector
    span = max(1, min(a, _BLOCK_SCRATCH_BYTES // per_a))
    inner = math.prod(batch[1:])
    rows = max(1, _BLOCK_SCRATCH_BYTES // (inner * span * per_a))
    scratch = _block_scratch(rows * inner * span * per_a)
    out = np.empty(batch + (a, e, b), dtype=dtype)
    x_rows = x.ndim - 3 == len(batch) and x.shape[0] > 1
    op_rows = op.ndim - 2 == len(batch) and op.shape[0] > 1
    for r in range(0, batch[0], rows):
        xr = x[r : r + rows] if x_rows else x
        opr = op[r : r + rows] if op_rows else op
        for lo in range(0, a, span):
            moved = np.swapaxes(xr[..., lo : lo + span, :, :], -3, -2)
            piece = scratch[: moved.size * dtype.itemsize].view(dtype).reshape(moved.shape)
            np.copyto(piece, moved)
            piece = piece.reshape(moved.shape[:-2] + (-1,))
            y_shape = (min(rows, batch[0] - r),) + batch[1:] + (e, piece.shape[-1])
            y = scratch[piece.nbytes : piece.nbytes + math.prod(y_shape) * dtype.itemsize]
            y = np.matmul(opr, piece, out=y.view(dtype).reshape(y_shape))
            out[r : r + rows, ..., lo : lo + span, :, :] = np.swapaxes(
                y.reshape(y.shape[:-1] + (-1, b)), -3, -2)
    return out


def apply_kraus_vector(
    amplitudes: np.ndarray, num_sites: int, local_dim: int, site: int, kraus: np.ndarray
) -> np.ndarray:
    """Apply a single-site map (e, d), such as a (d, d) operator or a (1, d)
    row that contracts the site out, to a raw (possibly unnormalized) vector.

    Leading axes are batch axes that broadcast: amplitudes (..., d**N) and
    kraus (..., e, d), so B vectors of shape (B, 1, d**N) take a set of k
    maps (k, e, d) in one call, giving (B, k, e * d**(N-1)); see _apply_block.
    """
    if kraus.ndim < 2 or kraus.shape[-1] != local_dim:
        raise ValueError(f"Kraus operator shape {kraus.shape}, expected (..., e, {local_dim})")
    if not 0 <= site < num_sites:
        raise ValueError(f"site {site} out of range")
    return _apply_block(amplitudes, num_sites, local_dim, site, 1, kraus)


def apply_kraus(state: PureState, site: int, kraus: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply one Kraus operator at a site.

    Returns the unnormalized post-measurement vector and its squared norm,
    which is the outcome probability when the Kraus set is complete.
    """
    kraus = np.asarray(kraus, dtype=complex)
    out = apply_kraus_vector(state.amplitudes, state.num_sites, state.local_dim, site, kraus)
    return out, float(np.vdot(out, out).real)


def apply_two_site_vector(
    amplitudes: np.ndarray, num_sites: int, local_dim: int, site: int, gate: np.ndarray
) -> np.ndarray:
    """Apply a two-site gate on (site, site+1).

    The gate is a (d**2, d**2) matrix over the pair basis |z_site + d*z_{site+1}>,
    i.e. little-endian within the pair, matching the global convention.
    Leading axes broadcast as in apply_kraus_vector: a stack of S vectors
    takes one gate or S gates (..., d**2, d**2) in one call; see _apply_block.
    """
    if site < 0 or site + 1 >= num_sites:
        raise ValueError(f"pair ({site}, {site + 1}) out of range")
    if gate.shape[-2:] != (local_dim**2,) * 2:
        raise ValueError(f"gate shape {gate.shape}, expected (..., {local_dim**2}, {local_dim**2})")
    return _apply_block(amplitudes, num_sites, local_dim, site, 2, gate)
