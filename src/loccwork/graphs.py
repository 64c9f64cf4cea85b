"""Simple undirected graphs, lattice generators, and independent-set search.

Vertices are integers 0..N-1.  Edges are stored as (i, j) pairs with i < j.
Lattice generators index a rows x cols grid row-major: vertex = r * cols + c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.num_vertices and 0 <= j < self.num_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [j if i == v else i for i, j in self.edges if v in (i, j)]
        return tuple(sorted(out))

    def degrees(self) -> list[int]:
        degs = [0] * self.num_vertices
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return degs

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
        for i, j in self.graph.edges:
            if i in verts and j in verts:
                raise ValueError(f"set is not independent: contains edge ({i}, {j})")

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
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            if rng.random() < 0.5:
                edges.append((i, j))
    return Graph(num_vertices, frozenset(edges))


# The dims each lattice kind takes, by name.
LATTICE_DIMS = {
    "cycle": ("n",),
    "square_torus": ("rows", "cols"),
    "triangular_torus": ("rows", "cols"),
    "hexagonal": ("rows", "cols"),
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
    vid = lambda r, c: (r % rows) * cols + (c % cols)

    if kind == "square_torus" or kind == "triangular_torus":
        if rows < 3 or cols < 3:
            raise ValueError(f"{kind} needs rows, cols >= 3 to avoid duplicate edges")
        edges = set()
        for r in range(rows):
            for c in range(cols):
                edges.add((vid(r, c), vid(r, c + 1)))
                edges.add((vid(r, c), vid(r + 1, c)))
                if kind == "triangular_torus":
                    edges.add((vid(r, c), vid(r + 1, c + 1)))
        return Graph(rows * cols, frozenset(tuple(sorted(e)) for e in edges))

    if kind == "hexagonal":
        if rows % 2 or cols % 2:
            raise ValueError("hexagonal lattice needs even rows and cols")
        if rows < 2 or cols < 4:
            raise ValueError("hexagonal lattice needs rows >= 2 and cols >= 4")
        edges = set()
        for r in range(rows):
            for c in range(cols):
                edges.add(tuple(sorted((vid(r, c), vid(r, c + 1)))))
                # One vertical bond per brick: present only on even parity.
                if (r + c) % 2 == 0:
                    edges.add(tuple(sorted((vid(r, c), vid(r + 1, c)))))
        return Graph(rows * cols, frozenset(edges))


def caro_wei_bound(g: Graph) -> float:
    """sum_v 1/(deg(v)+1), a lower bound on the independence number."""
    return float(sum(1.0 / (d + 1) for d in g.degrees()))


def greedy_independent_set(g: Graph) -> IndependentSet:
    """Repeatedly take the vertex of minimum residual degree (lowest index on
    ties) and delete its closed neighborhood.

    The size of the result is guaranteed to reach sum_v 1/(deg(v)+1); this is
    checked before returning.
    """
    adj = [set() for _ in range(g.num_vertices)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    alive = set(range(g.num_vertices))
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        removed = (adj[v] & alive) | {v}
        alive -= removed
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
    nbr = [0] * n
    for i, j in g.edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
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
        v, v_deg = -1, n + 1
        m = rem
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = bin(nbr[u] & rem).count("1")
            if deg < v_deg:
                v, v_deg = u, deg
        best_size, best_mask = 0, 0
        candidates = [v] + [u for u in range(n) if (nbr[v] >> u) & 1 and (rem >> u) & 1]
        for u in candidates:
            size, mask = solve(rem & ~closed[u])
            if size + 1 > best_size:
                best_size, best_mask = size + 1, mask | (1 << u)
        memo[rem] = (best_size, best_mask)
        return best_size, best_mask

    _, mask = solve((1 << n) - 1)
    verts = frozenset(v for v in range(n) if (mask >> v) & 1)
    return IndependentSet(g, verts)


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
    (see read_lines) and malformed lines raise."""
    lines = [text for _, text in read_lines(path)]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the vertex count, got {lines[0]!r}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer edge line {ln!r}")
        if i == j:
            raise ValueError(f"{path}: self-loop {ln!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}: edge {ln!r} out of range for {n} vertices")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"{path}: duplicate edge {ln!r}")
        seen.add(key)
        edges.append(key)
    return Graph(n, frozenset(edges))
