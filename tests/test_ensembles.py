"""Tests for samplers and state constructors.

Two independent oracles anchor this module: circuit layers rebuilt as dense
kron-product matrices, and graph states rebuilt by multiplying full CZ
matrices one edge at a time.
"""

import math

import numpy as np
import pytest

from loccwork.ensembles import (
    CircuitSpec,
    SubsetSpec,
    basis_state,
    bitstring_index,
    frame_potential,
    ghz_state,
    graph_state,
    haar_moment,
    haar_unitary,
    index_to_bitstring,
    load_subset_spec,
    plus_state,
    sample_circuit,
    sample_haar,
    sample_subset,
    save_subset_spec,
    subset_state,
    w_state,
    zero_state,
)
from loccwork.graphs import Graph, gen_lattice
from loccwork.qstate import reduced_density

LN2 = np.log(2.0)


def cz_matrix_oracle(g: Graph) -> np.ndarray:
    """Graph state by multiplying one full 2^N x 2^N CZ matrix per edge."""
    n = g.num_vertices
    dim = 2**n
    amps = np.full(dim, 1 / np.sqrt(dim), dtype=complex)
    for i, j in sorted(g.edges):
        cz = np.eye(dim, dtype=complex)
        for idx in range(dim):
            if (idx >> i) & 1 and (idx >> j) & 1:
                cz[idx, idx] = -1.0
        amps = cz @ amps
    return amps


def test_bitstring_round_trip():
    assert bitstring_index("10") == 1
    assert bitstring_index("01") == 2
    assert bitstring_index("011") == 6
    for idx in range(16):
        assert bitstring_index(index_to_bitstring(idx, 4)) == idx


def test_named_states():
    assert np.allclose(zero_state(3).amplitudes[0], 1.0)
    assert abs(basis_state("010").amplitudes[2] - 1.0) < 1e-15
    g = ghz_state(3)
    assert abs(g.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15
    assert abs(g.amplitudes[7] - 1 / np.sqrt(2)) < 1e-15
    w = w_state(3)
    assert np.allclose(sorted(np.flatnonzero(np.abs(w.amplitudes) > 0)), [1, 2, 4])
    p = plus_state(2)
    assert np.allclose(p.amplitudes, 0.5)


def test_haar_unitary_is_unitary_and_deterministic():
    u = haar_unitary(4, np.random.default_rng(3))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    v = haar_unitary(4, np.random.default_rng(3))
    assert np.allclose(u, v)


def test_sample_haar_norm_and_determinism():
    a = sample_haar(5, seed=11)
    b = sample_haar(5, seed=11)
    c = sample_haar(5, seed=12)
    assert abs(np.linalg.norm(a.amplitudes) - 1) < 1e-12
    assert np.allclose(a.amplitudes, b.amplitudes)
    assert not np.allclose(a.amplitudes, c.amplitudes)


def test_sample_haar_mean_overlap():
    # E|<v|psi>|^2 = 1/dim for any fixed v; use v = |0...0>.
    dim, samples = 2**6, 3000
    vals = np.array(
        [abs(sample_haar(6, seed=s).amplitudes[0]) ** 2 for s in range(samples)]
    )
    se = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(vals.mean() - 1 / dim) < 5 * se


def test_circuit_depth_zero_is_all_zeros():
    s = sample_circuit(CircuitSpec(num_sites=3, depth=0, rng_seed=1))
    assert abs(s.amplitudes[0] - 1.0) < 1e-15


def test_circuit_single_gate_matches_direct_matrix():
    # Depth 1 on two sites applies exactly one gate to |00>.
    spec = CircuitSpec(num_sites=2, depth=1, rng_seed=42)
    got = sample_circuit(spec).amplitudes
    u = haar_unitary(4, np.random.default_rng(42))
    want = u @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(got, want, atol=1e-12)


def test_circuit_two_layers_match_kron_oracle():
    # N=3: layer 0 couples (0,1), layer 1 couples (1,2).  In little-endian
    # layout a gate on (0,1) is kron(I, U) and a gate on (1,2) is kron(V, I).
    spec = CircuitSpec(num_sites=3, depth=2, rng_seed=9)
    got = sample_circuit(spec).amplitudes
    rng = np.random.default_rng(9)
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    want = np.kron(v, np.eye(2)) @ np.kron(np.eye(2), u) @ e0
    assert np.allclose(got, want, atol=1e-12)


def test_circuit_determinism_and_norm():
    a = sample_circuit(CircuitSpec(4, 20, rng_seed=5))
    b = sample_circuit(CircuitSpec(4, 20, rng_seed=5))
    assert np.allclose(a.amplitudes, b.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1) < 1e-12


def test_graph_state_edgeless_is_plus():
    g = Graph(3, frozenset())
    assert np.allclose(graph_state(g).amplitudes, plus_state(3).amplitudes)


def test_graph_state_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    assert np.allclose(graph_state(g).amplitudes, np.array([1, 1, 1, -1]) / 2)


@pytest.mark.parametrize(
    "g",
    [
        gen_lattice("cycle", (4,)),
        gen_lattice("cycle", (5,)),
        Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 2)})),
    ],
)
def test_graph_state_matches_cz_oracle(g):
    assert np.allclose(graph_state(g).amplitudes, cz_matrix_oracle(g), atol=1e-12)


def test_connected_graph_states_have_maximally_mixed_marginals():
    cases = [
        gen_lattice("cycle", (5,)),
        gen_lattice("square_torus", (3, 3)),
        Graph(4, frozenset({(0, 1), (0, 2), (0, 3)})),  # star
        Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})),  # path
    ]
    for g in cases:
        s = graph_state(g)
        for site in range(g.num_vertices):
            rho = reduced_density(s, [site]).matrix
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-9)


def test_subset_spec_validation():
    with pytest.raises(ValueError):
        SubsetSpec(2, ("00", "00"))
    with pytest.raises(ValueError):
        SubsetSpec(2, ("001",))
    with pytest.raises(ValueError):
        SubsetSpec(2, ("0x",))
    with pytest.raises(ValueError):
        SubsetSpec(2, ())


def test_subset_state_values():
    one = subset_state(SubsetSpec(2, ("10",)))
    assert abs(one.amplitudes[1] - 1.0) < 1e-15
    full = subset_state(SubsetSpec(2, ("00", "10", "01", "11")))
    assert np.allclose(full.amplitudes, plus_state(2).amplitudes)


def test_even_weight_subset_state_has_mixed_marginals():
    spec = SubsetSpec(3, ("000", "110", "101", "011"))
    s = subset_state(spec)
    for site in range(3):
        rho = reduced_density(s, [site]).matrix
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_sample_subset_determinism_and_validity():
    a = sample_subset(8, 16, seed=4)
    b = sample_subset(8, 16, seed=4)
    c = sample_subset(8, 16, seed=5)
    assert a.support == b.support
    assert a.support != c.support
    assert a.k == 16 and len(set(a.support)) == 16


def test_sample_subset_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_subset(3, 0, seed=1)
    with pytest.raises(ValueError):
        sample_subset(3, 9, seed=1)


def test_sample_subset_inclusion_frequency():
    n, k, draws = 10, 32, 2000
    counts = np.zeros(2**n)
    for s in range(draws):
        for bits in sample_subset(n, k, seed=s).support:
            counts[bitstring_index(bits)] += 1
    p = k / 2**n
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


def test_subset_spec_file_round_trip(tmp_path):
    spec = sample_subset(6, 9, seed=2)
    p = tmp_path / "support.txt"
    save_subset_spec(spec, p)
    back = load_subset_spec(p)
    assert back == spec
    # # starts a comment anywhere on a line, as in protocol files.
    p.write_text("# support\n" + "".join(f"{s}  # s\n" for s in spec.support))
    assert load_subset_spec(p) == spec


def test_load_subset_spec_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("001\n01\n")
    with pytest.raises(ValueError):
        load_subset_spec(p)
    p.write_text("")
    with pytest.raises(ValueError):
        load_subset_spec(p)


def test_haar_moment_matches_factorial_formula():
    for t, dim in [(1, 4), (2, 4), (2, 16), (3, 8)]:
        want = math.factorial(t) * math.factorial(dim - 1) / math.factorial(t + dim - 1)
        assert abs(haar_moment(t, dim) - want) < 1e-15
    assert abs(haar_moment(2, 4) - 0.1) < 1e-15


def test_frame_potential_edge_cases():
    z, o = basis_state("0"), basis_state("1")
    assert frame_potential([z, o], t=1) == 0.0
    assert abs(frame_potential([z, z], t=2) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        frame_potential([z], t=1)
    with pytest.raises(ValueError):
        frame_potential([z, o], t=0)


def test_frame_potential_haar_t1():
    states = [sample_haar(4, seed=s) for s in range(400)]
    got = frame_potential(states, t=1)
    assert abs(got - haar_moment(1, 16)) / haar_moment(1, 16) < 0.1


def test_frame_potential_deep_circuits_near_haar():
    states = [sample_circuit(CircuitSpec(4, 20, rng_seed=s)) for s in range(2000)]
    got = frame_potential(states, t=2)
    want = haar_moment(2, 16)
    assert abs(got - want) / want < 0.1


def test_frame_potential_converges_with_sample_count():
    # Deviation from the Haar value should shrink as samples grow, up to
    # 2 sigma of the degenerate pair-kernel noise at each size.
    dim, t = 8, 2
    f_haar = haar_moment(t, dim)
    var_pair = haar_moment(2 * t, dim) - f_haar**2
    sizes = [60, 360, 2160]
    devs, sigmas = [], []
    for m in sizes:
        states = [sample_circuit(CircuitSpec(3, 10, rng_seed=10_000 + s)) for s in range(m)]
        devs.append(abs(frame_potential(states, t) - f_haar))
        sigmas.append(np.sqrt(2 * var_pair / (m * (m - 1))))
    assert devs[1] <= devs[0] + 2 * sigmas[0]
    assert devs[2] <= devs[1] + 2 * sigmas[1]
