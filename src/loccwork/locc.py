"""Adaptive local measurement protocols and their certified work.

A protocol is a fixed number of rounds; in every round each site applies one
measurement (possibly the trivial one), chosen by a deterministic strategy
that may depend on all outcomes announced in earlier rounds.  Executing a
protocol on a state expands the tree of outcome branches; the work figure of
a protocol is

    sum_n [ ln d - average residual entropy at site n ] - H(outcomes),

where the average runs over the leaf distribution and H is the Shannon
entropy of that distribution.  When the final round is rank-one the residual
entropies vanish and the figure reduces to N ln d - H.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, greedy_independent_set
from .qstate import (
    PureState,
    apply_kraus_vector,
    shannon_entropy,
    site_entropies,
    site_marginals,
)

COMPLETENESS_ATOL = 1e-9
NULL_LABEL = "phi"
# A Kraus operator counts as rank-one when the outer product of one of its
# columns and one of its rows reproduces it to this fraction of its largest
# entry.
RANK_ONE_RTOL = 1e-13
# Most memory a branch tree may take as dense complex vectors, checked
# before each split and before leaf states are built from compact leaves.
BRANCH_BUDGET_BYTES = 1 << 29
COMPLEX_BYTES = 16


class ProtocolError(ValueError):
    """Strategy undefined on a history, or structurally invalid protocol."""


class BranchBudgetError(ProtocolError):
    """A branch tree would exceed BRANCH_BUDGET_BYTES of dense amplitudes."""


def _check_budget(amplitudes: int, what: str) -> None:
    need = amplitudes * COMPLEX_BYTES
    if need > BRANCH_BUDGET_BYTES:
        raise BranchBudgetError(
            f"{what} needs {amplitudes} complex amplitudes ({need} bytes), "
            f"over the branch budget of {BRANCH_BUDGET_BYTES} bytes"
        )


def _rank_one_factors(mats: list) -> tuple | None:
    """(rows, unit_columns, weights) when every operator is rank-one, else None.

    Operator k is taken as outer(col, row) with row its largest row K[i, :]
    and col = K[:, j] / K[i, j] for the largest entry of that row.  Taking
    both from the matrix's own entries, not from an SVD, repeats the dense
    split's arithmetic on row i, so outcomes that come out exactly 0 there
    (graph and subset states under Z and X) do here too.  weights[k] =
    |col|^2 carries the norm onto probabilities, and unit_columns[k] =
    col / |col| is the post-measurement site state.  A zero operator gets
    zero rows.
    """
    rows, units, weights = [], [], []
    for m in mats:
        i = int(np.argmax((np.abs(m) ** 2).sum(axis=1)))
        row = m[i]
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0:
            rows.append(row)
            units.append(np.zeros_like(row))
            weights.append(0.0)
            continue
        col = m[:, j] / row[j]
        if np.abs(np.outer(col, row) - m).max() > RANK_ONE_RTOL * np.abs(m).max():
            return None
        weight = float(np.vdot(col, col).real)
        rows.append(row)
        units.append(col / np.sqrt(weight))
        weights.append(weight)
    arrays = (np.array(rows), np.array(units), np.array(weights))
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class SiteMeasurement:
    """A complete Kraus set for one site: ((label, matrix), ...).

    Labels are distinct strings; sum K^dag K must equal the identity within
    1e-9.  The trivial measurement is the identity with label "phi".
    rank_one holds the factors execute collapses a final round with (see
    _rank_one_factors), or None when some operator is not rank-one.
    """

    ops: tuple
    rank_one: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("measurement needs at least one outcome")
        ops = []
        labels = []
        dim = None
        for label, mat in self.ops:
            if not isinstance(label, str) or not label:
                raise ValueError(f"outcome label must be a nonempty string, got {label!r}")
            m = np.asarray(mat, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"Kraus operator must be square, got shape {m.shape}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("mixed Kraus dimensions in one measurement")
            m = m.copy()
            m.flags.writeable = False
            labels.append(label)
            ops.append((label, m))
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels {labels}")
        total = sum(m.conj().T @ m for _, m in ops)
        if not np.allclose(total, np.eye(dim), atol=COMPLETENESS_ATOL, rtol=0.0):
            raise ValueError("incomplete Kraus set: sum K^dag K != identity within 1e-9")
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "rank_one", _rank_one_factors([m for _, m in ops]))

    @property
    def local_dim(self) -> int:
        return self.ops[0][1].shape[0]

    @classmethod
    def null(cls, local_dim: int = 2) -> "SiteMeasurement":
        return cls(((NULL_LABEL, np.eye(local_dim)),))

    @classmethod
    def z_basis(cls, local_dim: int = 2) -> "SiteMeasurement":
        ops = []
        for j in range(local_dim):
            proj = np.zeros((local_dim, local_dim))
            proj[j, j] = 1.0
            ops.append((str(j), proj))
        return cls(tuple(ops))

    @classmethod
    def x_basis(cls) -> "SiteMeasurement":
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        return cls((("+", plus), ("-", minus)))


Strategy = Callable[[int, tuple], list]


@dataclass(frozen=True)
class Protocol:
    """Deterministic adaptive measurement schedule.

    strategy(round_index, history) returns one SiteMeasurement per site;
    round_index is 1-based and history is a tuple of per-round label tuples
    for all earlier rounds.
    """

    num_sites: int
    num_rounds: int
    strategy: Strategy = field(repr=False)
    local_dim: int = 2
    name: str = "custom"
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.num_sites < 1 or self.num_rounds < 1:
            raise ValueError("need at least one site and one round")


@dataclass(frozen=True)
class BranchNode:
    """One outcome branch: full history, its probability, the conditional state."""

    history: tuple
    probability: float
    state: PureState


@dataclass(frozen=True)
class _DenseLeaves:
    """Consecutive leaves stored as stacked, normalized state vectors."""

    histories: tuple
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.histories)

    def history(self, i: int) -> tuple:
        return self.histories[i]

    def all_histories(self) -> tuple:
        return self.histories

    def state(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def residual_entropies(self, num_sites: int, local_dim: int) -> np.ndarray:
        """Summed single-site entropies of each leaf."""
        return site_entropies(site_marginals(self.vectors, num_sites, local_dim)).sum(axis=1)


@dataclass(frozen=True)
class _ProductLeaves:
    """Leaves of one branch whose final round was rank-one on every site.

    Leaf i is outcome index[i] (flat, site 0's outcome most significant) of
    the final-round measurements; its state is the product of their unit
    columns times phases[i], the phase of its outcome amplitude.
    """

    prefix: tuple
    measurements: tuple
    index: np.ndarray
    phases: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def _outcomes(self, rows) -> tuple:
        shape = tuple(len(m.ops) for m in self.measurements)
        return np.unravel_index(self.index[rows], shape)

    def _history(self, outcome) -> tuple:
        labels = tuple(m.ops[int(k)][0] for m, k in zip(self.measurements, outcome))
        return self.prefix + (labels,)

    def history(self, i: int) -> tuple:
        return self._history(self._outcomes(i))

    def all_histories(self) -> tuple:
        return tuple(self._history(o) for o in zip(*self._outcomes(slice(None))))

    def state(self, i: int) -> np.ndarray:
        """Dense vector of leaf i, site 0 the fastest index."""
        amps = self.phases[i : i + 1]
        for m, k in zip(self.measurements, self._outcomes(i)):
            amps = np.kron(m.rank_one[1][k], amps)
        return amps

    def residual_entropies(self, num_sites: int, local_dim: int) -> np.ndarray:
        """Product states: every residual entropy is 0 by construction."""
        return np.zeros(len(self))


class _LeafView(SequenceABC):
    """tree.leaves: BranchNode items built only when read."""

    def __init__(self, tree: "BranchTree") -> None:
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree.probabilities)

    def __getitem__(self, i: int) -> BranchNode:
        tree = self._tree
        count = len(self)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("leaf index out of range")
        _check_budget(count * tree.input_state.dim, "building the leaf states")
        b = bisect.bisect_right(tree.offsets, i) - 1
        block, row = tree.blocks[b], i - tree.offsets[b]
        state = tree.input_state
        return BranchNode(
            block.history(row),
            float(tree.probabilities[i]),
            PureState(state.num_sites, state.local_dim, block.state(row)),
        )


@dataclass(frozen=True)
class BranchTree:
    """Leaves of a fully executed protocol, plus any pruned probability mass.

    probabilities[i] is leaf i's probability.  The leaves stay compact in
    blocks: stacked dense vectors, or, for a final round that was rank-one
    on every site, outcome indices and phases.  tree.leaves is a sequence
    of BranchNode that builds a leaf's state when the item is read; len()
    builds nothing.
    """

    input_state: PureState
    num_rounds: int
    probabilities: np.ndarray = field(repr=False)
    dropped_mass: float
    blocks: tuple = field(repr=False)
    offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = itertools.accumulate((len(b) for b in self.blocks), initial=0)
        object.__setattr__(self, "offsets", tuple(starts)[:-1])

    @property
    def leaves(self) -> _LeafView:
        return _LeafView(self)

    def histories(self) -> tuple:
        return tuple(h for b in self.blocks for h in b.all_histories())

    def outcome_distribution(self) -> dict:
        return dict(zip(self.histories(), self.probabilities.tolist()))

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())


@dataclass(frozen=True)
class ProtocolWork:
    """Work certified by one protocol on one state, in nats."""

    w_lambda: float
    local_term: float
    outcome_entropy: float
    leaf_count: int

    def __post_init__(self) -> None:
        if abs(self.w_lambda - (self.local_term - self.outcome_entropy)) > 1e-10:
            raise ValueError("w_lambda must equal local_term - outcome_entropy")


def _round_measurements(protocol: Protocol, rnd: int, history: tuple) -> list:
    try:
        meas = protocol.strategy(rnd, history)
    except KeyError as exc:
        raise ProtocolError(f"strategy undefined on history {history!r}: {exc}") from exc
    if len(meas) != protocol.num_sites:
        raise ProtocolError(
            f"strategy returned {len(meas)} measurements for {protocol.num_sites} sites"
        )
    for m in meas:
        if not isinstance(m, SiteMeasurement):
            raise ProtocolError(f"strategy must return SiteMeasurement objects, got {type(m)}")
        if m.local_dim != protocol.local_dim:
            raise ProtocolError("measurement dimension does not match protocol")
    return meas


def _split(plans: list, n: int, d: int, prune_below: float) -> tuple[list, float]:
    """One round of Kraus splits, site by site, on every planned branch.

    plans holds (history, vector, measurements); returns the children as
    (history, unnormalized vector, probability) in outcome order, with
    site 0's label most significant, and the pruned mass.
    """
    partial = [(history, (), vec, meas, 1.0) for history, vec, meas in plans]
    dropped = 0.0
    for site in range(n):
        _check_budget(sum(len(p[3][site].ops) for p in partial) * d**n, "splitting the branches")
        grown = []
        for history, labels, vec, meas, _ in partial:
            for label, kraus in meas[site].ops:
                out = apply_kraus_vector(vec, n, d, site, kraus)
                prob = float(np.vdot(out, out).real)
                if prob == 0.0:
                    continue
                if prob < prune_below:
                    dropped += prob
                    continue
                grown.append((history, labels + (label,), out, meas, prob))
        partial = grown
    return [(history + (labels,), vec, prob) for history, labels, vec, _, prob in partial], dropped


def _collapse(history: tuple, vec: np.ndarray, meas: list, n: int, d: int, prune_below: float):
    """A final round that is rank-one on every site, in O(N d^N).

    Each site's rows rotate the branch vector into outcome amplitudes; the
    Born probabilities are their squared moduli times the column weights.
    Returns (leaves, probabilities, pruned mass).
    """
    counts = [len(m.ops) for m in meas]
    _check_budget(math.prod(counts), "collapsing a rank-one round")
    amps, right = vec, 1
    for site, m in enumerate(meas):
        rows = m.rank_one[0]
        amps = np.einsum("kj,ajb->akb", rows, amps.reshape(d ** (n - site - 1), d, right))
        right *= len(rows)
    # Axes run from site N-1 to site 0; reversing them puts site 0 first.
    amps = amps.reshape(counts[::-1]).transpose(range(n - 1, -1, -1)).ravel()
    weights = np.ones(1)
    for m in meas:
        weights = np.multiply.outer(weights, m.rank_one[2]).ravel()
    probs = np.abs(amps) ** 2 * weights
    low = (probs > 0.0) & (probs < prune_below)
    index = np.flatnonzero((probs > 0.0) & ~low)
    kept = amps[index]
    leaves = _ProductLeaves(history, tuple(meas), index, kept / np.abs(kept))
    return leaves, probs[index], float(probs[low].sum())


def _dense_leaves(children: list, dropped: float) -> tuple:
    """Stack _split's children into normalized rows: (leaves, probabilities,
    pruned mass), as _collapse returns them."""
    probs = np.array([prob for _, _, prob in children])
    if not children:
        return None, probs, dropped
    vectors = np.stack([vec for _, vec, _ in children])
    vectors /= np.sqrt(probs)[:, np.newaxis]
    return _DenseLeaves(tuple(h for h, _, _ in children), vectors), probs, dropped


def execute(protocol: Protocol, state: PureState, prune_below: float = 0.0) -> BranchTree:
    """Expand the full branch tree of a protocol on a state.

    Branches are split site by site within each round; a branch whose
    probability is exactly zero is not an outcome and is silently removed,
    while branches below prune_below (at most 1e-12) are removed with their
    mass accounted in dropped_mass.  Leaf states are normalized.

    A final round whose measurements are all rank-one (see
    SiteMeasurement.rank_one) is not split: one rotation per site turns the
    branch vector into the Born distribution, in O(N d^N) instead of
    O(d^(2N)), and leaves whose probability is zero or below prune_below
    are removed the same way.  Every other round splits dense vectors;
    BranchBudgetError is raised before a split would exceed
    BRANCH_BUDGET_BYTES.
    """
    if not 0.0 <= prune_below <= 1e-12:
        raise ValueError("prune_below must lie in [0, 1e-12]")
    if state.num_sites != protocol.num_sites or state.local_dim != protocol.local_dim:
        raise ValueError("state shape does not match protocol")
    n, d = state.num_sites, state.local_dim
    branches = [((), state.amplitudes, 1.0)]
    dropped = 0.0
    for rnd in range(1, protocol.num_rounds):
        plans = [(h, vec, _round_measurements(protocol, rnd, h)) for h, vec, _ in branches]
        branches, lost = _split(plans, n, d, prune_below)
        dropped += lost
    final = protocol.num_rounds
    plans = [(h, vec, _round_measurements(protocol, final, h)) for h, vec, _ in branches]

    # Consecutive dense branches split together; rank-one ones collapse.
    blocks, probs = [], []
    for rank_one, group in itertools.groupby(
        plans, key=lambda plan: all(m.rank_one is not None for m in plan[2])
    ):
        if rank_one:
            parts = [_collapse(*plan, n, d, prune_below) for plan in group]
        else:
            parts = [_dense_leaves(*_split(list(group), n, d, prune_below))]
        for leaves, p, lost in parts:
            dropped += lost
            if len(p):
                blocks.append(leaves)
                probs.append(p)
    probabilities = np.concatenate(probs) if probs else np.zeros(0)
    probabilities.flags.writeable = False
    return BranchTree(
        input_state=state,
        num_rounds=protocol.num_rounds,
        probabilities=probabilities,
        dropped_mass=dropped,
        blocks=tuple(blocks),
    )


def protocol_work(tree: BranchTree) -> ProtocolWork:
    """Work figure of an executed protocol.

    Requires an essentially complete tree (dropped mass below 1e-9).
    """
    if tree.dropped_mass > 1e-9:
        raise ValueError(f"tree dropped {tree.dropped_mass} probability; too lossy to score")
    n, d = tree.input_state.num_sites, tree.input_state.local_dim
    entropy = shannon_entropy(tree.probabilities)
    residual = np.concatenate(
        [b.residual_entropies(n, d) for b in tree.blocks] or [np.zeros(0)]
    )
    local_term = n * float(np.log(d)) - float(tree.probabilities @ residual)
    return ProtocolWork(
        w_lambda=local_term - entropy,
        local_term=local_term,
        outcome_entropy=entropy,
        leaf_count=len(tree.probabilities),
    )


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    if abs(v[idx]) == 0.0:
        return v
    return v * (abs(v[idx]) / v[idx])


def _eigenbasis(vals: np.ndarray, vecs: np.ndarray) -> SiteMeasurement:
    """Projectors onto the eigenvectors of one marginal, largest first."""
    ops = []
    for rank, idx in enumerate(np.argsort(-vals, kind="stable")):
        v = _phase_fixed(vecs[:, idx])
        ops.append((f"e{rank}", np.outer(v, v.conj())))
    return SiteMeasurement(tuple(ops))


def refine_rank_one(protocol: Protocol, state: PureState) -> Protocol:
    """Append a round measuring every site in the eigenbasis of its
    conditional marginal.

    The appended round is rank-one, so it can only sharpen the local term
    while adding outcome entropy already paid for by the residual entropies;
    the work figure never decreases.  The eigenbases depend on the input
    state, so the refined protocol is specific to it; executing it on other
    states raises on unseen histories.

    A leaf of a collapsed final round is a product of the unit columns of
    its outcomes, so its site eigenbases follow from its labels alone.  They
    are looked up by label for every outcome of that round, including those
    of probability exactly 0: the refined protocol splits the round densely,
    and may reach such an outcome at rounding level (about 1e-33).
    """
    tree = execute(protocol, state)
    n, d = protocol.num_sites, protocol.local_dim
    by_history: dict = {}
    by_prefix: dict = {}
    for block in tree.blocks:
        if isinstance(block, _DenseLeaves):
            vals, vecs = np.linalg.eigh(site_marginals(block.vectors, n, d))
            for history, leaf_vals, leaf_vecs in zip(block.histories, vals, vecs):
                by_history[history] = [_eigenbasis(w, v) for w, v in zip(leaf_vals, leaf_vecs)]
        else:
            per_site = []
            for m in block.measurements:
                units = m.rank_one[1]
                vals, vecs = np.linalg.eigh(np.einsum("ki,kj->kij", units, units.conj()))
                bases = [_eigenbasis(w, v) for w, v in zip(vals, vecs)]
                per_site.append({label: basis for (label, _), basis in zip(m.ops, bases)})
            by_prefix[block.prefix] = per_site

    base_strategy = protocol.strategy
    base_rounds = protocol.num_rounds

    def strategy(rnd: int, history: tuple) -> list:
        if rnd <= base_rounds:
            return base_strategy(rnd, history)
        if history in by_history:
            return by_history[history]
        per_site = by_prefix[history[:-1]]
        return [bases[label] for bases, label in zip(per_site, history[-1])]

    return Protocol(
        num_sites=n,
        num_rounds=base_rounds + 1,
        strategy=strategy,
        local_dim=protocol.local_dim,
        name=protocol.name + "+rank1",
        meta=dict(protocol.meta),
    )


def static_protocol(
    rounds: Sequence[Sequence[SiteMeasurement]], local_dim: int = 2, name: str = "custom"
) -> Protocol:
    """Protocol whose rounds ignore the outcome history."""
    rounds = [list(r) for r in rounds]
    if not rounds:
        raise ValueError("need at least one round")
    num_sites = len(rounds[0])
    if any(len(r) != num_sites for r in rounds):
        raise ValueError("all rounds must cover the same number of sites")

    def strategy(rnd: int, history: tuple) -> list:
        return rounds[rnd - 1]

    return Protocol(
        num_sites=num_sites,
        num_rounds=len(rounds),
        strategy=strategy,
        local_dim=local_dim,
        name=name,
    )


def null_protocol(num_sites: int, local_dim: int = 2) -> Protocol:
    """One round of trivial measurements; certifies exactly the local figure."""
    row = [SiteMeasurement.null(local_dim)] * num_sites
    return static_protocol([row], local_dim=local_dim, name="null")


def subset_protocol(num_sites: int, local_dim: int = 2) -> Protocol:
    """One round measuring every site in the computational basis."""
    row = [SiteMeasurement.z_basis(local_dim)] * num_sites
    return static_protocol([row], local_dim=local_dim, name="computational")


def independent_set_protocol(graph: Graph) -> Protocol:
    """Computational-basis measurements off a greedy independent set S and
    +/- measurements on S, in one round.

    On the graph state of `graph`, the off-S outcomes are uniform and the
    S outcomes are parity functions of their neighbors, certifying
    |S| ln 2 >= N ln 2 / (max degree + 1).
    """
    ind = greedy_independent_set(graph)
    row = [
        SiteMeasurement.x_basis() if v in ind.vertices else SiteMeasurement.z_basis()
        for v in range(graph.num_vertices)
    ]
    proto = static_protocol([row], name="independent-set")
    proto.meta["independent_set"] = tuple(sorted(ind.vertices))
    return proto


def best_lower_bound(
    state: PureState, protocols: Sequence[Protocol], prune_below: float = 0.0
) -> tuple[float, str]:
    """Largest work figure over a protocol menu; earliest protocol wins ties."""
    if not protocols:
        raise ValueError("need at least one protocol")
    best_value, best_name = None, None
    for proto in protocols:
        work = protocol_work(execute(proto, state, prune_below)).w_lambda
        if best_value is None or work > best_value:
            best_value, best_name = work, proto.name
    return float(best_value), best_name


def _parse_op_line(parts: list, path, lineno: int) -> tuple[str, np.ndarray]:
    if len(parts) != 10:
        raise ValueError(f"{path}:{lineno}: op line needs a label and 8 numbers")
    label = parts[1]
    try:
        vals = [float(x) for x in parts[2:]]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric matrix entry")
    m = np.array(
        [
            [vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
            [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]],
        ]
    )
    return label, m


def load_protocol(path: str | Path) -> Protocol:
    """Read a protocol description file.

    Format (one directive per line, # comments allowed):

        sites N
        measurement NAME          # optional custom blocks
        op LABEL a b c d e f g h  # 2x2 row-major, re/im interleaved
        end
        round TOK TOK ... TOK     # N tokens: Z, X, null, or a NAME

    Every measurement block must form a complete Kraus set.
    """
    path = Path(path)
    num_sites = None
    named: dict = {}
    rounds: list = []
    block_name = None
    block_ops: list = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if block_name is not None:
            if key == "op":
                block_ops.append(_parse_op_line(parts, path, lineno))
                continue
            if key == "end":
                if not block_ops:
                    raise ValueError(f"{path}:{lineno}: empty measurement block")
                named[block_name] = SiteMeasurement(tuple(block_ops))
                block_name, block_ops = None, []
                continue
            raise ValueError(f"{path}:{lineno}: expected op/end inside measurement block")
        if key == "sites":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"{path}:{lineno}: sites directive needs a count")
            num_sites = int(parts[1])
        elif key == "measurement":
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: measurement directive needs a name")
            block_name, block_ops = parts[1], []
        elif key == "round":
            if num_sites is None:
                raise ValueError(f"{path}:{lineno}: sites must come before rounds")
            tokens = parts[1:]
            if len(tokens) != num_sites:
                raise ValueError(
                    f"{path}:{lineno}: round has {len(tokens)} tokens, expected {num_sites}"
                )
            row = []
            for tok in tokens:
                if tok == "Z":
                    row.append(SiteMeasurement.z_basis())
                elif tok == "X":
                    row.append(SiteMeasurement.x_basis())
                elif tok == "null":
                    row.append(SiteMeasurement.null())
                elif tok in named:
                    row.append(named[tok])
                else:
                    raise ValueError(f"{path}:{lineno}: unknown measurement token {tok!r}")
            rounds.append(row)
        else:
            raise ValueError(f"{path}:{lineno}: unknown directive {key!r}")
    if block_name is not None:
        raise ValueError(f"{path}: unterminated measurement block {block_name!r}")
    if not rounds:
        raise ValueError(f"{path}: no rounds defined")
    return static_protocol(rounds, name=path.stem)
