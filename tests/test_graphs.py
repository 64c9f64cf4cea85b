"""Tests for graph plumbing, lattices, and independent-set search.

The exhaustive independent-set oracle used here enumerates all 2^n subsets
directly, independent of the branch-and-bound implementation.
"""

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


def test_graph_normalizes_and_validates():
    g = Graph(3, frozenset({(2, 0), (1, 2)}))
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.has_edge(2, 0)
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))


def test_independent_set_validation():
    g = gen_lattice("cycle", (4,))
    IndependentSet(g, frozenset({0, 2}))
    with pytest.raises(ValueError):
        IndependentSet(g, frozenset({0, 1}))
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
    for seed in range(25):
        g = gen_random_graph(9, seed=seed)
        got = max_independent_set_bruteforce(g)
        assert len(got) == exhaustive_max_independent_size(g)


def test_greedy_between_degree_bound_and_maximum():
    for seed in range(40):
        g = gen_random_graph(10, seed=1000 + seed)
        greedy = greedy_independent_set(g)
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
    ],
)
def test_graph_reader_rejects_malformed(tmp_path, body):
    p = tmp_path / "bad.edges"
    p.write_text(body)
    with pytest.raises(ValueError):
        load_graph(p)
