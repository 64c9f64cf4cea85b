"""Tests for graph plumbing, lattices, and independent-set search.

The exhaustive independent-set oracle used here enumerates all 2^n subsets
directly, independent of the branch-and-bound implementation.
"""

import re

import numpy as np
import pytest

from loccwork.graphs import (
    Graph,
    IndependentSet,
    adjacency_upper,
    caro_wei_bound,
    gen_lattice,
    gen_random_graph,
    greedy_independent_set,
    load_graph,
    max_independent_set_bruteforce,
    save_graph,
)


def exhaustive_max_independent_size(g: Graph) -> int:
    """All-subsets oracle, viable up to ~14 vertices."""
    n = g.num_vertices
    pairs = list(g.edges)
    best = 0
    for mask in range(1 << n):
        if all(not ((mask >> i) & 1 and (mask >> j) & 1) for i, j in pairs):
            best = max(best, bin(mask).count("1"))
    return best


def reference_lattice_edges(kind: str, dims: tuple) -> frozenset | None:
    """Edge set of a lattice from explicit per-kind loops, or None where the
    shape is invalid."""
    if kind == "cycle":
        (n,) = dims
        return frozenset(tuple(sorted((i, (i + 1) % n))) for i in range(n)) if n >= 3 else None
    rows, cols = dims
    if kind == "hexagonal" and (rows % 2 or cols % 2 or rows < 2 or cols < 4):
        return None
    if kind != "hexagonal" and (rows < 3 or cols < 3):
        return None
    vid = lambda r, c: (r % rows) * cols + (c % cols)
    edges = set()
    for r in range(rows):
        for c in range(cols):
            edges.add(tuple(sorted((vid(r, c), vid(r, c + 1)))))
            if kind != "hexagonal" or (r + c) % 2 == 0:
                edges.add(tuple(sorted((vid(r, c), vid(r + 1, c)))))
            if kind == "triangular_torus":
                edges.add(tuple(sorted((vid(r, c), vid(r + 1, c + 1)))))
    return frozenset(edges)


def reference_greedy(g: Graph) -> frozenset:
    """Least residual degree first, lowest index on ties, over Python sets."""
    adj = {v: set() for v in range(g.num_vertices)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    alive, chosen = set(adj), set()
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.add(v)
        alive -= adj[v] | {v}
    return frozenset(chosen)


LATTICES = [gen_lattice("cycle", (7,)), gen_lattice("square_torus", (3, 4)),
            gen_lattice("triangular_torus", (3, 3)), gen_lattice("hexagonal", (2, 6))]


def test_graph_normalizes_and_validates():
    g = Graph(3, frozenset({(2, 0), (1, 2)}))
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.has_edge(2, 0)
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    # masks[-1] would be the last vertex's row.
    for v in (-1, 3):
        with pytest.raises(ValueError):
            g.neighbors(v)


def test_masks_are_the_adjacency():
    graphs = [gen_random_graph(n, seed=300 + 13 * n + s) for n in range(1, 13) for s in range(8)]
    for g in graphs + LATTICES + [Graph(3, frozenset({(2, 0), (0, 2)}))]:
        n = g.num_vertices
        assert len(g.masks) == n
        for v in range(n):
            assert not g.masks[v] >> v & 1
            assert g.masks[v] < 1 << n
            for u in range(n):
                assert (g.masks[v] >> u & 1) == (g.masks[u] >> v & 1) == g.has_edge(u, v)
        assert [m.bit_count() for m in g.masks] == g.degrees()
        assert all(g.neighbors(v) == tuple(u for u in range(n) if g.has_edge(u, v))
                   for v in range(n))


def test_independent_set_validation():
    g = gen_lattice("cycle", (4,))
    IndependentSet(g, frozenset({0, 2}))
    with pytest.raises(ValueError):
        IndependentSet(g, frozenset({0, 1}))
    # The lowest edge inside the set is named.
    with pytest.raises(ValueError, match=re.escape("contains edge (1, 2)")):
        IndependentSet(g, frozenset({3, 2, 1}))
    with pytest.raises(ValueError):
        IndependentSet(g, frozenset({0, 9}))


def test_adjacency_upper_cycle():
    a = adjacency_upper(gen_lattice("cycle", (4,)))
    assert np.array_equal(a, np.triu(a, 1))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 1] = want[1, 2] = want[2, 3] = want[0, 3] = 1
    assert np.array_equal(a, want)


def test_lattice_degrees_and_sizes():
    c6 = gen_lattice("cycle", (6,))
    assert len(c6.edges) == 6 and set(c6.degrees()) == {2}

    sq = gen_lattice("square_torus", (3, 4))
    assert sq.num_vertices == 12 and len(sq.edges) == 24 and set(sq.degrees()) == {4}

    tri = gen_lattice("triangular_torus", (3, 3))
    assert tri.num_vertices == 9 and set(tri.degrees()) == {6}

    hexa = gen_lattice("hexagonal", (2, 4))
    assert hexa.num_vertices == 8 and set(hexa.degrees()) == {3}
    assert len(hexa.edges) == 12


@pytest.mark.parametrize("kind", ["cycle", "square_torus", "triangular_torus", "hexagonal"])
def test_lattice_edges_match_reference(kind):
    shapes = [(n,) for n in range(1, 15)] if kind == "cycle" else [
        (rows, cols) for rows in range(1, 9) for cols in range(1, 9)]
    for dims in shapes:
        want = reference_lattice_edges(kind, dims)
        if want is None:
            with pytest.raises(ValueError):
                gen_lattice(kind, dims)
        else:
            g = gen_lattice(kind, dims)
            assert g.num_vertices == (dims[0] if kind == "cycle" else dims[0] * dims[1])
            assert g.edges == want, (kind, dims)


def test_lattice_rejects_bad_dims():
    with pytest.raises(ValueError):
        gen_lattice("cycle", (2,))
    with pytest.raises(ValueError):
        gen_lattice("square_torus", (2, 4))
    with pytest.raises(ValueError):
        gen_lattice("hexagonal", (3, 4))
    with pytest.raises(ValueError):
        gen_lattice("hexagonal", (2, 5))
    with pytest.raises(ValueError):
        gen_lattice("kagome", (3, 3))


def test_random_graph_deterministic_under_seed():
    a = gen_random_graph(12, seed=5)
    b = gen_random_graph(12, seed=5)
    c = gen_random_graph(12, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_graph_edge_frequency():
    n, samples = 20, 10_000
    counts = np.zeros((n, n))
    for s in range(samples):
        counts += adjacency_upper(gen_random_graph(n, seed=s))
    freq = counts[np.triu_indices(n, 1)] / samples
    sigma = np.sqrt(0.25 / samples)
    assert np.all(np.abs(freq - 0.5) < 5 * sigma)


def test_greedy_on_cycle_six():
    s = greedy_independent_set(gen_lattice("cycle", (6,)))
    assert s.vertices == frozenset({0, 2, 4})


def test_greedy_on_star_takes_leaves():
    g = Graph(6, frozenset((0, v) for v in range(1, 6)))
    s = greedy_independent_set(g)
    assert s.vertices == frozenset({1, 2, 3, 4, 5})


def test_bruteforce_known_graphs():
    assert len(max_independent_set_bruteforce(gen_lattice("cycle", (6,)))) == 3
    k4 = Graph(4, frozenset((i, j) for i in range(4) for j in range(i + 1, 4)))
    assert len(max_independent_set_bruteforce(k4)) == 1
    empty = Graph(5, frozenset())
    assert len(max_independent_set_bruteforce(empty)) == 5


def test_bruteforce_rejects_large_graphs():
    with pytest.raises(ValueError):
        max_independent_set_bruteforce(Graph(21, frozenset()))


def test_bruteforce_matches_exhaustive_oracle():
    for g in [gen_random_graph(9, seed=seed) for seed in range(25)] + LATTICES:
        got = max_independent_set_bruteforce(g)
        assert len(got) == exhaustive_max_independent_size(g)


def test_greedy_between_degree_bound_and_maximum():
    for g in [gen_random_graph(10, seed=1000 + seed) for seed in range(40)] + LATTICES:
        greedy = greedy_independent_set(g)
        assert greedy.vertices == reference_greedy(g)
        exact = max_independent_set_bruteforce(g)
        assert caro_wei_bound(g) - 1e-9 <= len(greedy) <= len(exact)


def test_graph_file_round_trip(tmp_path):
    g = gen_lattice("square_torus", (3, 3))
    p = tmp_path / "g.edges"
    save_graph(g, p)
    assert load_graph(p).edges == g.edges
    assert load_graph(p).num_vertices == g.num_vertices
    # # starts a comment anywhere on a line, as in protocol files.
    lines = p.read_text().splitlines()
    p.write_text("# a 3x3 torus\n" + "".join(f"{ln}   # edge {i}\n" for i, ln in enumerate(lines)))
    assert load_graph(p).edges == g.edges
    assert load_graph(p).num_vertices == g.num_vertices


@pytest.mark.parametrize(
    "body",
    [
        "",  # empty
        "x\n0 1\n",  # bad count
        "3\n0 1 2\n",  # three tokens
        "3\n0 a\n",  # non-integer
        "3\n1 1\n",  # self-loop
        "3\n0 3\n",  # out of range
        "3\n0 1\n1 0\n",  # duplicate
        "0\n",  # no vertices
    ],
)
def test_graph_reader_rejects_malformed(tmp_path, body):
    p = tmp_path / "bad.edges"
    p.write_text(body)
    with pytest.raises(ValueError, match=re.escape(str(p))):
        load_graph(p)
