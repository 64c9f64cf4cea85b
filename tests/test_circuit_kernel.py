"""The batched brickwork-circuit kernel against the gate-by-gate loop it replaced.

``oracle_circuit`` is that earlier loop, kept here as the reference: one
generator per circuit, and for each gate in brickwork order a fresh
Ginibre draw (d**4 real parts, then d**4 imaginary parts), its own QR and
R-diagonal rephase, and one ``einsum`` on the flat state vector.
``ensembles.sample_circuits`` now runs a chunk of circuits together: one
stacked QR for all their gates and one batched matmul per gate position.
These tests hold it, ``sample_circuit`` and ``lab.run_tail`` on top of it,
to the reference.
"""

import tracemalloc

import numpy as np
import pytest

from loccwork import ensembles, lab
from loccwork.ensembles import CircuitSpec, sample_circuit, sample_circuits

TOL = 1e-12


def oracle_circuit(num_sites, depth, seed, local_dim=2):
    """Amplitudes of the brickwork circuit seeded `seed` on |0...0>."""
    n, d = num_sites, local_dim
    m = d * d
    rng = np.random.default_rng(seed)
    amps = np.zeros(d**n, dtype=complex)
    amps[0] = 1.0
    for layer in range(depth):
        for i in range(layer % 2, n - 1, 2):
            z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            gate = q * (diag / np.abs(diag))
            t = amps.reshape(d ** (n - i - 2), m, d**i)
            amps = np.einsum("ij,ajb->aib", gate, t).reshape(-1)
    return amps


def oracle_exceed_counts(num_sites, depth, samples, alphas, seed):
    overlaps = np.array(
        [abs(oracle_circuit(num_sites, depth, seed + i)[0]) ** 2 for i in range(samples)]
    )
    return [int((overlaps >= a / 2**num_sites).sum()) for a in alphas]


def gate_count(num_sites, depth):
    return sum(len(range(layer % 2, num_sites - 1, 2)) for layer in range(depth))


SHAPES = [(n, d, depth) for n in range(2, 7) for d in (2, 3) for depth in range(6)]


@pytest.mark.parametrize("n, d, depth", SHAPES)
def test_single_sample_matches_oracle(n, d, depth):
    got = sample_circuit(CircuitSpec(n, depth, 100 + depth, d)).amplitudes
    assert np.abs(got - oracle_circuit(n, depth, 100 + depth, d)).max() <= TOL


@pytest.mark.parametrize("n, d, depth", SHAPES)
def test_chunked_stack_matches_oracle(n, d, depth, monkeypatch):
    # A cap of exactly two samples' gate and state stacks splits 5 samples 2 + 2 + 1.
    m = d * d
    cap = 2 * ensembles._COMPLEX_BYTES * (gate_count(n, depth) * m * m + d**n)
    monkeypatch.setattr(ensembles, "_CIRCUIT_CHUNK_BYTES", cap)
    stacks = list(sample_circuits(CircuitSpec(n, depth, 40, d), 5))
    assert [a.shape for a in stacks] == [(2, d**n), (2, d**n), (1, d**n)]
    got = np.concatenate(stacks)
    want = np.array([oracle_circuit(n, depth, 40 + i, d) for i in range(5)])
    assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize("d", [2, 3])
def test_gate_blocks_split_within_one_sample(d, monkeypatch):
    # A cap below one sample's gates: chunks of one sample, three gates per block.
    m = d * d
    monkeypatch.setattr(ensembles, "_CIRCUIT_CHUNK_BYTES", 3 * ensembles._COMPLEX_BYTES * m * m)
    got = np.concatenate(list(sample_circuits(CircuitSpec(6, 5, 7, d), 3)))
    want = np.array([oracle_circuit(6, 5, 7 + i, d) for i in range(3)])
    assert np.abs(got - want).max() <= TOL


def test_memory_stays_flat_in_depth_and_samples():
    cap = ensembles._CIRCUIT_CHUNK_BYTES
    for spec, count in ((CircuitSpec(8, 2000, 3), 1), (CircuitSpec(8, 10, 3), 2000)):
        tracemalloc.start()
        try:
            for amps in sample_circuits(spec, count):
                del amps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One depth-2000 sample has 7000 gates, 1.7 MiB as complex matrices.
        assert peak < 8 * cap, (spec, count, peak)


def test_lost_normalization_raises(monkeypatch):
    real_apply = ensembles.apply_two_site_vector

    def leaky(amps, *args):
        out = real_apply(amps, *args)
        out[-1] *= 1.5
        return out

    monkeypatch.setattr(ensembles, "apply_two_site_vector", leaky)
    with pytest.raises(ArithmeticError, match="normalization"):
        sample_circuit(CircuitSpec(3, 2, 0))


@pytest.mark.parametrize("n, depth, samples, alphas, seed", [
    (8, 20, 4000, [4, 8, 16], 80),
    (8, 10, 1000, [2, 4, 8, 16], 11),
    (8, 10, 1000, [2, 4, 8, 16], 12),
    (8, 10, 1000, [2, 4, 8, 16], 13),
], ids=["acceptance-08", "tails-seed-11", "tails-seed-12", "tails-seed-13"])
def test_run_tail_counts_equal_oracle(n, depth, samples, alphas, seed):
    rows = lab.run_tail("circuit", n, samples, alphas, seed=seed, depth=depth, design_order=2)
    assert [r.exceed_count for r in rows] == oracle_exceed_counts(n, depth, samples, alphas,
                                                                  seed)
