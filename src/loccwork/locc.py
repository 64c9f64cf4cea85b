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
import functools
import itertools
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, greedy_independent_set, read_lines
from .qstate import (
    PureState,
    StateSpecError,
    _fix_phases,
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
# Most memory a branch tree may take: its complex residuals and dense site
# columns, plus each child's probability, keep mask, parent index and outcome
# indices; checked before each step and before building leaf states.
BRANCH_BUDGET_BYTES = 1 << 29
COMPLEX_BYTES = 16
# A step's float64 probability, bool keep mask and intp parent index per child.
_CHILD_STEP_BYTES = 8 + 1 + np.dtype(np.intp).itemsize


class ProtocolError(ValueError):
    """Strategy undefined on a history, or structurally invalid protocol."""


class BranchBudgetError(ProtocolError):
    """A branch tree would exceed BRANCH_BUDGET_BYTES."""


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > BRANCH_BUDGET_BYTES:
        raise BranchBudgetError(
            f"{what} needs {nbytes} bytes, over the branch budget of {BRANCH_BUDGET_BYTES} bytes"
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


def _one_per_dim(build):
    """Cache a standard measurement's constructor on (class, site dimension),
    however the integer dimension is passed: each kind is built and checked
    once per dimension, and every caller holds the same object."""
    cached = functools.cache(build)
    return functools.wraps(build)(lambda cls, local_dim=2: cached(cls, operator.index(local_dim)))


@dataclass(frozen=True)
class SiteMeasurement:
    """A complete Kraus set for one site: ((label, matrix), ...).

    Labels are distinct strings; sum K^dag K must equal the identity within
    1e-9.  The trivial measurement is the identity with label "phi".
    null, z_basis and x_basis return one shared object per site dimension;
    it is immutable, its arrays read-only.
    rank_one holds the factors execute slices a site with (see
    _rank_one_factors), or None when some operator is not rank-one;
    kraus is the read-only (count, e, d) stack execute applies: rank_one's
    rows as (1, d) maps, else the operators; root_weights is the square root
    of rank_one's weights, or None;
    identity is True for a lone identity operator, which execute skips.
    """

    ops: tuple
    rank_one: tuple | None = field(init=False, default=None, repr=False, compare=False)
    kraus: np.ndarray = field(init=False, default=None, repr=False, compare=False)
    root_weights: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    identity: bool = field(init=False, default=False, repr=False, compare=False)

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
        rank_one = _rank_one_factors([m for _, m in ops])
        if rank_one is None:
            kraus, root_weights = np.array([m for _, m in ops]), None
        else:
            kraus, root_weights = rank_one[0][:, np.newaxis], np.sqrt(rank_one[2])
            root_weights.flags.writeable = False
        kraus.flags.writeable = False
        object.__setattr__(self, "rank_one", rank_one)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "root_weights", root_weights)
        object.__setattr__(self, "identity", len(ops) == 1 and np.array_equal(m, np.eye(dim)))

    @property
    def local_dim(self) -> int:
        return self.ops[0][1].shape[0]

    @classmethod
    @_one_per_dim
    def null(cls, local_dim: int = 2) -> "SiteMeasurement":
        return cls(((NULL_LABEL, np.eye(local_dim)),))

    @classmethod
    @_one_per_dim
    def z_basis(cls, local_dim: int = 2) -> "SiteMeasurement":
        return cls(tuple((str(j), np.diag(e)) for j, e in enumerate(np.eye(local_dim))))

    @classmethod
    @functools.cache
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


def _norm2(x: np.ndarray) -> np.ndarray:
    """Squared norms over the (contiguous) last axis, with no temporary."""
    v = x.view(np.float64)
    return np.einsum("...i,...i->...", v, v)


@dataclass(frozen=True)
class _Branches:
    """Consecutive branches that took the same measurements in every round.

    A branch's state is the product of one unit column per sliced site and
    its residual over the open sites (little-endian).  sliced[s] is None for
    an open site, the round of the last rank-one operator on it (its unit
    column at the branch's outcome), or, after another operator, a (B, d)
    array of unit columns.  outcomes[r] holds each branch's outcome index in
    round r (see digits), in a dtype that holds the round's outcome count.
    A residual's squared norm is its branch's probability until execute
    normalizes the leaves.
    """

    rounds: tuple
    outcomes: tuple
    sliced: tuple
    residual: np.ndarray

    def __len__(self) -> int:
        return len(self.residual)

    @property
    def open_sites(self) -> list:
        return [s for s, c in enumerate(self.sliced) if c is None]

    def nbytes(self) -> int:
        arrays = [self.residual, *self.outcomes]
        arrays += [c for c in self.sliced if isinstance(c, np.ndarray)]
        return sum(a.nbytes for a in arrays)

    def columns(self, site: int, rows=slice(None)) -> np.ndarray:
        c = self.sliced[site]
        if isinstance(c, np.ndarray):
            return c[rows]
        return self.rounds[c][site].rank_one[1][self.digits(c, site, rows)]

    def digits(self, r: int, site: int, rows=slice(None)) -> np.ndarray:
        """Outcome indices at a site in round r (site 0 the most significant digit)."""
        counts = [len(m.ops) for m in self.rounds[r]]
        digit = self.outcomes[r][rows] // math.prod(counts[site + 1 :]) % counts[site]
        return np.asarray(digit, np.intp)

    def take(self, rows: slice, measurements: tuple) -> "_Branches":
        """The given rows, with one more round of measurements to take."""
        residual, total = self.residual[rows], math.prod(len(m.ops) for m in measurements)
        fresh = np.zeros(len(residual), np.min_scalar_type(total))
        outcomes = tuple(o[rows] for o in self.outcomes) + (fresh,)
        sliced = tuple(c[rows] if isinstance(c, np.ndarray) else c for c in self.sliced)
        return _Branches(self.rounds + (measurements,), outcomes, sliced, residual)

    def histories(self, rows=slice(None)) -> list:
        """One tuple of per-round label tuples per branch in rows."""
        per_round = [zip(*([m.ops[k][0] for k in self.digits(r, s, rows).tolist()]
                           for s, m in enumerate(meas)))
                     for r, meas in enumerate(self.rounds)]
        return list(zip(*per_round)) if per_round else [()] * len(self.residual[rows])

    def state(self, i: int, local_dim: int) -> np.ndarray:
        """Dense vector of leaf i, site 0 the fastest index."""
        vec = self.residual[i]
        for s, c in enumerate(self.sliced):
            if c is not None:  # site s goes above the s sites below it
                vec = np.einsum("ab,j->ajb", vec.reshape(-1, local_dim**s), self.columns(s, i))
        return vec.ravel()


def _step(branches: _Branches, rnd: int, site: int, m: SiteMeasurement, d: int,
          prune_below: float, held: int) -> tuple:
    """Measure one site of every branch: (children in outcome order, pruned mass).

    Every operator acts in one batched apply_kraus_vector call, on the
    residual or on the site's columns.  A rank-one operator goes in as its
    (1, d) row and slices the site: the row contracts an open site out of
    the residual, as out of the dense vector, so exact zeros stay exact, or
    its overlap with a sliced site's column scales the residual.  Any other
    operator keeps the site; on a sliced site, the norms of its new columns
    scale the residual.  held counts the bytes of the rest of the tree.
    """
    count, rank_one = len(m.ops), m.rank_one is not None
    sliced = list(branches.sliced)
    column, width = sliced[site], branches.residual.shape[1]
    dense = sum(isinstance(c, np.ndarray) for c in sliced)
    if rank_one:
        sliced[site] = rnd
        dense -= isinstance(column, np.ndarray)
    else:
        dense += isinstance(column, int)
    if column is None and rank_one:
        width //= d
    child = (COMPLEX_BYTES * (width + d * dense) + _CHILD_STEP_BYTES
             + sum(o.itemsize for o in branches.outcomes))
    if column is None:
        open_sites = branches.open_sites
        pos = open_sites.index(site)
        _check_budget(held + len(branches) * count * child, "measuring the branches")
        grown = apply_kraus_vector(branches.residual[:, np.newaxis], len(open_sites), d, pos,
                                   m.kraus)
        if rank_one:
            grown *= m.root_weights[:, np.newaxis]
        probs = _norm2(grown).ravel()
    else:
        # The k maps stacked as one (k * e, d) operator: one GEMM for the batch.
        out = apply_kraus_vector(branches.columns(site), 1, d, 0, m.kraus.reshape(-1, d))
        out = out.reshape(-1, count, m.kraus.shape[1])
        if rank_one:
            factor = out[..., 0] * m.root_weights
        else:
            factor = np.sqrt(_norm2(out))
        probs = (_norm2(branches.residual)[:, np.newaxis] * np.abs(factor) ** 2).ravel()
    keep = probs >= prune_below if prune_below else probs > 0.0
    lost = float(probs[~keep].sum()) if prune_below else 0.0  # else dropped ones are 0
    kept = int(np.count_nonzero(keep))
    del probs  # freed before the children's arrays are built
    parent = keep.nonzero()[0] // count
    if column is not None:
        _check_budget(held + kept * child, "measuring the branches")
    sliced = [c[parent] if isinstance(c, np.ndarray) and s != site else c
              for s, c in enumerate(sliced)]
    if column is None:
        residual = grown.reshape(-1, width)
        residual = residual if kept == len(residual) else residual[keep]
    else:
        factor = factor.ravel()[keep, np.newaxis]
        residual = branches.residual[parent] * factor
        if not rank_one:
            sliced[site] = out.reshape(-1, d)[keep] / factor
    *earlier, current = branches.outcomes
    grid = current[:, np.newaxis] * count + np.arange(count, dtype=current.dtype)
    outcomes = tuple(o[parent] for o in earlier) + (grid.ravel()[keep],)
    return _Branches(branches.rounds, outcomes, tuple(sliced), residual), lost


class _LeafView(SequenceABC):
    """tree.leaves: BranchNode items built only when read; a slice is a list
    of them, each read as one item."""

    def __init__(self, tree: "BranchTree") -> None:
        self._tree = tree

    def __len__(self) -> int:
        return len(self._tree.probabilities)

    def __getitem__(self, i: int | slice) -> BranchNode | list:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        tree, count = self._tree, len(self)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("leaf index out of range")
        _check_budget(count * tree.input_state.dim * COMPLEX_BYTES, "building the leaf states")
        b = bisect.bisect_right(tree.offsets, i) - 1
        block, row = tree.blocks[b], i - tree.offsets[b]
        state = tree.input_state
        return BranchNode(
            block.histories(slice(row, row + 1))[0],
            float(tree.probabilities[i]),
            PureState(state.num_sites, state.local_dim, block.state(row, state.local_dim)),
        )


@dataclass(frozen=True)
class BranchTree:
    """Leaves of a fully executed protocol, plus any pruned probability mass.

    probabilities[i] is leaf i's probability.  The leaves stay compact, in
    blocks (see _Branches); tree.leaves is a sequence of BranchNode that
    builds a leaf's state when the item is read; len() builds nothing.
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
        return tuple(h for b in self.blocks for h in b.histories())

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


def _batches(protocol: Protocol, rnd: int, branches: _Branches):
    """Runs of consecutive branches for which the strategy picks the same
    measurement objects in round rnd (0-based), each with that round added."""
    plans = []
    for history in branches.histories():
        try:
            plans.append(protocol.strategy(rnd + 1, history))
        except KeyError as exc:
            raise ProtocolError(f"strategy undefined on history {history!r}: {exc}") from exc
    start = 0
    for _, run in itertools.groupby(plans, key=lambda meas: tuple(map(id, meas))):
        meas, size = plans[start], len(list(run))
        if len(meas) != protocol.num_sites:
            raise ProtocolError(
                f"strategy returned {len(meas)} measurements for {protocol.num_sites} sites"
            )
        for m in meas:
            if not isinstance(m, SiteMeasurement):
                raise ProtocolError(f"strategy must return SiteMeasurement objects, got {type(m)}")
            if m.local_dim != protocol.local_dim:
                raise ProtocolError("measurement dimension does not match protocol")
        yield branches.take(slice(start, start + size), tuple(meas))
        start += size


def check_protocol(protocol: Protocol, num_sites: int, local_dim: int,
                   prune_below: float) -> None:
    """Raises StateSpecError where execute would reject this protocol on a
    state of this shape; allocates nothing."""
    n, d = protocol.num_sites, protocol.local_dim
    if n != num_sites:
        raise StateSpecError(f"protocol acts on {n} sites but the state has {num_sites}")
    if d != local_dim:
        raise StateSpecError(
            f"protocol measures sites of dimension {d} but the state's have dimension {local_dim}")
    if not 0.0 <= prune_below <= 1e-12:
        raise StateSpecError("prune_below must lie in [0, 1e-12]")


def execute(protocol: Protocol, state: PureState, prune_below: float = 0.0) -> BranchTree:
    """Expand the full branch tree of a protocol on a state.

    Each round measures site by site, in batches of consecutive branches
    that take the same measurements.  A rank-one operator (see
    SiteMeasurement.rank_one), in any round, slices its site out of the
    branch vector into its unit column, on which later operators act alone:
    L branches cost O(L d^open), open sites being those never so measured.

    A leaf is an outcome whose computed probability is above 0 and not
    pruned: partial branches of probability exactly 0 are removed, and
    those below prune_below (at most 1e-12) too, their mass accounted in
    dropped_mass.  Leaf states are normalized.  BranchBudgetError is raised
    before a step would take the tree's arrays over BRANCH_BUDGET_BYTES:
    residuals, dense site columns, and each child's probability, keep mask,
    parent index and outcome indices.  check_protocol runs first.
    """
    n, d = state.num_sites, state.local_dim
    check_protocol(protocol, n, d, prune_below)
    blocks = [_Branches((), (), (None,) * n, state.amplitudes[np.newaxis].copy())]
    dropped = 0.0
    for rnd in range(protocol.num_rounds):
        batches = [batch for block in blocks for batch in _batches(protocol, rnd, block)]
        # Bytes held by every branch but the batch being measured.
        held, blocks = sum(b.nbytes() for b in batches), []
        for i in range(len(batches)):
            batch, batches[i] = batches[i], None  # its arrays go once it is measured
            held -= batch.nbytes()
            for site, m in enumerate(batch.rounds[-1]):
                if len(batch) and not m.identity:
                    batch, lost = _step(batch, rnd, site, m, d, prune_below, held)
                    dropped += lost
            if len(batch):
                blocks.append(batch)
                held += batch.nbytes()
    probs = [_norm2(b.residual) for b in blocks]
    for b, p in zip(blocks, probs):
        np.divide(b.residual, np.sqrt(p)[:, np.newaxis], out=b.residual)
    probabilities = np.concatenate(probs or [np.zeros(0)])
    probabilities.flags.writeable = False
    return BranchTree(
        input_state=state,
        num_rounds=protocol.num_rounds,
        probabilities=probabilities,
        dropped_mass=dropped,
        blocks=tuple(blocks),
    )


def protocol_work(tree: BranchTree) -> ProtocolWork:
    """Work figure of an executed protocol; sliced sites are pure.

    Requires an essentially complete tree (dropped mass below 1e-9).
    """
    if tree.dropped_mass > 1e-9:
        raise ValueError(f"tree dropped {tree.dropped_mass} probability; too lossy to score")
    n, d = tree.input_state.num_sites, tree.input_state.local_dim
    entropy = shannon_entropy(tree.probabilities)
    residual = np.concatenate([
        site_entropies(site_marginals(b.residual, len(b.open_sites), d)).sum(axis=1)
        if b.open_sites else np.zeros(len(b)) for b in tree.blocks] or [np.zeros(0)])
    local_term = n * float(np.log(d)) - float(tree.probabilities @ residual)
    return ProtocolWork(
        w_lambda=local_term - entropy,
        local_term=local_term,
        outcome_entropy=entropy,
        leaf_count=len(tree.probabilities),
    )


def _eigenbases(marginals: np.ndarray) -> list:
    """One SiteMeasurement per marginal (..., d, d): projectors onto its
    eigenvectors, largest eigenvalue first."""
    bases = []
    for vals, vecs in zip(*np.linalg.eigh(marginals)):
        vectors = _fix_phases(vecs[:, np.argsort(-vals, kind="stable")].T)
        ops = tuple((f"e{rank}", np.outer(v, v.conj())) for rank, v in enumerate(vectors))
        bases.append(SiteMeasurement(ops))
    return bases


def refine_rank_one(protocol: Protocol, state: PureState) -> Protocol:
    """Append a round measuring every site in the eigenbasis of its
    conditional marginal.

    The appended round is rank-one, so it can only sharpen the local term
    while adding outcome entropy already paid for by the residual entropies;
    the work figure never decreases.  The eigenbases depend on the input
    state, so the refined protocol is specific to it; executing it on other
    states raises on unseen histories.

    The eigenbases come from the marginals of the leaf blocks' residuals, one
    per open site.  A sliced site is a known pure factor, whose eigenbasis
    measurement has one certain outcome: it takes the null measurement, and
    its history reads phi.  Executing the refined protocol repeats the same
    arithmetic, so it reaches exactly the leaves found here.
    """
    tree = execute(protocol, state)
    n, d = protocol.num_sites, protocol.local_dim
    by_history: dict = {}
    for block in tree.blocks:
        marginals = site_marginals(block.residual, len(block.open_sites), d)
        per_site = [[SiteMeasurement.null(d)] * len(block)] * n
        for j, s in enumerate(block.open_sites):
            per_site[s] = _eigenbases(marginals[:, j])
        for i, history in enumerate(block.histories()):
            by_history[history] = [bases[i] for bases in per_site]

    base_strategy = protocol.strategy
    base_rounds = protocol.num_rounds

    def strategy(rnd: int, history: tuple) -> list:
        if rnd <= base_rounds:
            return base_strategy(rnd, history)
        return by_history[history]

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


# The measurement tokens every protocol file may use, resolved before its
# named blocks.
_TOKENS = {"Z": SiteMeasurement.z_basis, "X": SiteMeasurement.x_basis, "null": SiteMeasurement.null}


def load_protocol(path: str | Path) -> Protocol:
    """Read a protocol description file.

    Format (one directive per line; # starts a comment, see graphs.read_lines):

        sites N
        measurement NAME          # optional custom blocks
        op LABEL a b c d e f g h  # 2x2 row-major, re/im interleaved
        end
        round TOK TOK ... TOK     # N tokens: Z, X, null, or a NAME

    Every measurement block must form a complete Kraus set.  Z, X and null
    (_TOKENS) are the shared standard measurements and shadow blocks of the
    same name.
    """
    path = Path(path)
    num_sites, block_name = None, None
    named, rounds, block_ops = {}, [], []
    for lineno, line in read_lines(path):
        parts = line.split()
        key, where = parts[0], f"{path}:{lineno}"
        if block_name is not None:
            if key == "op":
                if len(parts) != 10:
                    raise ValueError(f"{where}: op line needs a label and 8 numbers")
                try:
                    re_im = np.array([float(x) for x in parts[2:]])
                except ValueError:
                    raise ValueError(f"{where}: non-numeric matrix entry")
                block_ops.append((parts[1], re_im.view(complex).reshape(2, 2)))
                continue
            if key == "end":
                if not block_ops:
                    raise ValueError(f"{where}: empty measurement block")
                named[block_name] = SiteMeasurement(tuple(block_ops))
                block_name, block_ops = None, []
                continue
            raise ValueError(f"{where}: expected op/end inside measurement block")
        if key == "sites":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"{where}: sites directive needs a count")
            num_sites = int(parts[1])
        elif key == "measurement":
            if len(parts) != 2:
                raise ValueError(f"{where}: measurement directive needs a name")
            block_name, block_ops = parts[1], []
        elif key == "round":
            if num_sites is None:
                raise ValueError(f"{where}: sites must come before rounds")
            tokens = parts[1:]
            if len(tokens) != num_sites:
                raise ValueError(f"{where}: round has {len(tokens)} tokens, expected {num_sites}")
            try:
                rounds.append([_TOKENS[t]() if t in _TOKENS else named[t] for t in tokens])
            except KeyError as exc:
                raise ValueError(f"{where}: unknown measurement token {exc.args[0]!r}") from None
        else:
            raise ValueError(f"{where}: unknown directive {key!r}")
    if block_name is not None:
        raise ValueError(f"{path}: unterminated measurement block {block_name!r}")
    if not rounds:
        raise ValueError(f"{path}: no rounds defined")
    return static_protocol(rounds, name=path.stem)
