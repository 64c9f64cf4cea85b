"""Simple undirected graphs, lattice generators, and independent-set search.

Vertices are integers 0..N-1.  Edges are stored as (i, j) pairs with i < j.
Lattice generators index a rows x cols grid row-major: vertex = r * cols + c.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


@dataclass(frozen=True)
class Graph:
    """Graph on vertices 0..num_vertices-1, the one judge of an edge: both
    ends in range and distinct; (i, j) and (j, i) are the same edge.

    masks is derived and read-only: bit u of masks[v] is set when u and v
    are adjacent.  Every adjacency query reads it.
    """

    num_vertices: int
    edges: frozenset = field(default_factory=frozenset)
    masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm, masks = set(), [0] * n
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} vertices")
            norm.add((min(i, j), max(i, j)))
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "masks", tuple(masks))

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range")
        return tuple(_bits(self.masks[v]))

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.masks]

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class IndependentSet:
    """Vertex subset with no internal edges; independence checked exhaustively."""

    graph: Graph
    vertices: frozenset

    def __post_init__(self) -> None:
        verts = frozenset(int(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        for v in verts:
            if not 0 <= v < self.graph.num_vertices:
                raise ValueError(f"vertex {v} out of range")
        mask = sum(1 << v for v in verts)
        inside = [(v, u) for v in sorted(verts) for u in _bits(self.graph.masks[v] & mask)]
        if inside:
            raise ValueError(f"set is not independent: contains edge {inside[0]}")

    def __len__(self) -> int:
        return len(self.vertices)


def adjacency_upper(g: Graph) -> np.ndarray:
    """Strictly upper-triangular 0/1 adjacency matrix."""
    a = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = 1
    return a


def gen_random_graph(num_vertices: int, seed: int) -> Graph:
    """Erdos-Renyi graph with edge probability 1/2.

    Pairs are visited in order (0,1), (0,2), ..., (n-2,n-1), one uniform
    draw each, so the result is reproducible from the seed alone.
    """
    draws = np.random.default_rng(seed).random(num_vertices * (num_vertices - 1) // 2)
    pairs = itertools.combinations(range(num_vertices), 2)
    return Graph(num_vertices, frozenset(e for e, x in zip(pairs, draws) if x < 0.5))


# The dims each lattice kind takes, by name.
LATTICE_DIMS = {
    "cycle": ("n",),
    "square_torus": ("rows", "cols"),
    "triangular_torus": ("rows", "cols"),
    "hexagonal": ("rows", "cols"),
}

# Bond offsets (dr, dc) from each cell of the 2-D lattices.  The hexagonal
# (brick-wall) lattice keeps its vertical bond only where r + c is even: one
# per brick.
_BONDS = {
    "square_torus": ((0, 1), (1, 0)),
    "triangular_torus": ((0, 1), (1, 0), (1, 1)),
    "hexagonal": ((0, 1), (1, 0)),
}


def gen_lattice(kind: str, dims: tuple) -> Graph:
    """Regular lattices with periodic wrapping.

    kind "cycle" takes dims (n,) with n >= 3 and has constant degree 2;
    "square_torus" and "triangular_torus" take (rows, cols), both >= 3,
    degrees 4 and 6; "hexagonal" takes (rows, cols) with rows even >= 2 and
    cols even >= 4, degree 3 (brick-wall embedding of the honeycomb).
    """
    if kind not in LATTICE_DIMS:
        raise ValueError(f"unknown lattice kind {kind!r}")
    names = LATTICE_DIMS[kind]
    if len(dims) != len(names):
        unit = "dim" if len(names) == 1 else "dims"
        raise ValueError(f"{kind} takes {len(names)} {unit} ({', '.join(names)}), got {len(dims)}")
    if kind == "cycle":
        (n,) = dims
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))

    rows, cols = dims
    if kind == "hexagonal":
        if rows % 2 or cols % 2:
            raise ValueError("hexagonal lattice needs even rows and cols")
        if rows < 2 or cols < 4:
            raise ValueError("hexagonal lattice needs rows >= 2 and cols >= 4")
    elif rows < 3 or cols < 3:
        raise ValueError(f"{kind} needs rows, cols >= 3 to avoid duplicate edges")
    edges = frozenset(
        (r * cols + c, (r + dr) % rows * cols + (c + dc) % cols)
        for r in range(rows) for c in range(cols) for dr, dc in _BONDS[kind]
        if not (kind == "hexagonal" and dr and (r + c) % 2)
    )
    return Graph(rows * cols, edges)


def caro_wei_bound(g: Graph) -> float:
    """sum_v 1/(deg(v)+1), a lower bound on the independence number."""
    return float(sum(1.0 / (d + 1) for d in g.degrees()))


def greedy_independent_set(g: Graph) -> IndependentSet:
    """Repeatedly take the vertex of minimum residual degree (lowest index on
    ties) and delete its closed neighborhood.

    The size of the result is guaranteed to reach sum_v 1/(deg(v)+1); this is
    checked before returning.
    """
    alive, chosen = (1 << g.num_vertices) - 1, []
    while alive:
        # min keeps the first of equal keys: the lowest index on ties.
        v = min(_bits(alive), key=lambda u: (g.masks[u] & alive).bit_count())
        chosen.append(v)
        alive &= ~(g.masks[v] | 1 << v)
    result = IndependentSet(g, frozenset(chosen))
    bound = caro_wei_bound(g)
    if len(result) < bound - 1e-9:
        raise AssertionError(
            f"greedy set size {len(result)} fell below the degree bound {bound}"
        )
    return result


def max_independent_set_bruteforce(g: Graph) -> IndependentSet:
    """Exact maximum independent set via branch-and-bound on bitmasks.

    Rejects graphs with more than 20 vertices; beyond that the search is no
    longer a sensible oracle.
    """
    n = g.num_vertices
    if n > 20:
        raise ValueError("bruteforce search limited to 20 vertices")
    nbr = g.masks
    closed = [nbr[v] | (1 << v) for v in range(n)]
    memo: dict = {}

    def solve(rem: int) -> tuple[int, int]:
        if rem == 0:
            return 0, 0
        hit = memo.get(rem)
        if hit is not None:
            return hit
        # Branch on the closed neighborhood of a minimum-degree vertex: any
        # maximal independent set intersects it.
        v = min(_bits(rem), key=lambda u: (nbr[u] & rem).bit_count())
        best_size, best_mask = 0, 0
        for u in [v] + _bits(nbr[v] & rem):
            size, mask = solve(rem & ~closed[u])
            if size + 1 > best_size:
                best_size, best_mask = size + 1, mask | (1 << u)
        memo[rem] = (best_size, best_mask)
        return best_size, best_mask

    _, mask = solve((1 << n) - 1)
    return IndependentSet(g, frozenset(_bits(mask)))


def read_lines(path: str | Path) -> list[tuple[int, str]]:
    """(1-based line number, text) of each line of a graph, support or
    protocol file that is not blank once a # and all after it are cut."""
    lines = enumerate(Path(path).read_text().splitlines(), start=1)
    cut = ((lineno, raw.partition("#")[0].strip()) for lineno, raw in lines)
    return [(lineno, text) for lineno, text in cut if text]


def save_graph(g: Graph, path: str | Path) -> None:
    """Edge-list text format: first line is the vertex count, then one
    0-indexed "i j" pair per line."""
    lines = [str(g.num_vertices)]
    lines += [f"{i} {j}" for i, j in sorted(g.edges)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path) -> Graph:
    """Read the edge-list format written by save_graph; # starts a comment
    (see read_lines).  The file's own rules are line shape, integers and no
    repeated pair; Graph judges the edges, and its ValueError is raised again
    with the path in front."""
    lines = [text for _, text in read_lines(path)]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the vertex count, got {lines[0]!r}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer edge line {ln!r}")
        key = (min(i, j), max(i, j))
        if key in edges:
            raise ValueError(f"{path}: duplicate edge {ln!r}")
        edges.add(key)
    try:
        return Graph(n, frozenset(edges))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
