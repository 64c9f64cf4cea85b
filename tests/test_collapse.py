"""The array-based protocol engine against the per-branch engine it replaced.

``oracle_execute`` and ``oracle_protocol_work`` are that earlier engine,
kept here as the reference: one dense vector per branch, split site by site
in every round, and every leaf scored through one checked ``reduced_density``
per site.  ``execute`` now measures batches of branches site by site: a
rank-one operator, in any round, slices its site out of the branch vector
into a known product factor, other operators act in one batched call, and
the open sites of the leaves are scored with the batched ``site_marginals``
/ ``site_entropies`` kernel.  These tests hold it to the reference on random
static and adaptive protocols.
"""

import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import random_measurement, random_state
from loccwork import locc, qstate
from loccwork.ensembles import ghz_state, graph_state, plus_state, sample_subset, subset_state
from loccwork.graphs import gen_lattice
from loccwork.locc import (
    BranchBudgetError,
    Protocol,
    SiteMeasurement,
    execute,
    independent_set_protocol,
    protocol_work,
    refine_rank_one,
    static_protocol,
    subset_protocol,
)
from loccwork.qstate import (
    DensityOperator,
    PureState,
    apply_kraus_vector,
    reduced_density,
    shannon_entropy,
    site_entropies,
    site_marginals,
    von_neumann_entropy,
)

TOL = 1e-10
# Probabilities at or below this are rounding noise around an exact zero.
NOISE = 1e-25


def oracle_execute(protocol, state, prune_below=0.0):
    """Leaves as (history, probability, PureState) and the pruned mass."""
    n, d = state.num_sites, state.local_dim
    branches = [((), state.amplitudes)]
    dropped = 0.0
    for rnd in range(1, protocol.num_rounds + 1):
        nxt = []
        for history, amps in branches:
            meas = protocol.strategy(rnd, history)
            partial = [((), amps)]
            for site in range(n):
                grown = []
                for labels, vec in partial:
                    for label, kraus in meas[site].ops:
                        out = apply_kraus_vector(vec, n, d, site, kraus)
                        prob = float(np.vdot(out, out).real)
                        if prob == 0.0:
                            continue
                        if prob < prune_below:
                            dropped += prob
                            continue
                        grown.append((labels + (label,), out))
                partial = grown
            nxt.extend((history + (labels,), vec) for labels, vec in partial)
        branches = nxt
    leaves = []
    for history, vec in branches:
        prob = float(np.vdot(vec, vec).real)
        leaves.append((history, prob, PureState(n, d, vec / np.sqrt(prob))))
    return leaves, dropped


def oracle_protocol_work(leaves, num_sites, local_dim):
    """(w_lambda, local_term, outcome_entropy) of oracle leaves."""
    entropy = shannon_entropy({history: prob for history, prob, _ in leaves})
    residual = 0.0
    for _, prob, leaf in leaves:
        residual += prob * sum(
            von_neumann_entropy(reduced_density(leaf, [site])) for site in range(num_sites)
        )
    local_term = num_sites * float(np.log(local_dim)) - residual
    return local_term - entropy, local_term, entropy


# ---------------------------------------------------------------------------
# Measurement menu


def eigenbasis(rng, d=2):
    """Projectors onto a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return SiteMeasurement(tuple((f"e{k}", np.outer(q[:, k], q[:, k].conj())) for k in range(d)))


def trine():
    """Three-outcome qubit POVM sqrt(2/3)|t_k><t_k|, Bloch vectors 120 degrees apart."""
    ops = []
    for k in range(3):
        t = np.array([np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)])
        ops.append((f"t{k}", np.sqrt(2 / 3) * np.outer(t, t)))
    return SiteMeasurement(tuple(ops))


def ket_bra(rng):
    """Rank-one Kraus pair |a_k><b_k|: random unit a_k, random orthonormal b_k."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ops = []
    for k in range(2):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ops.append((f"k{k}", np.outer(a / np.linalg.norm(a), q[:, k].conj())))
    return SiteMeasurement(tuple(ops))


def weak():
    hi, lo = np.sqrt(0.8), np.sqrt(0.2)
    return SiteMeasurement((("w0", np.diag([hi, lo])), ("w1", np.diag([lo, hi]))))


def rank_one_menu(rng):
    return [
        SiteMeasurement.z_basis(),
        SiteMeasurement.x_basis(),
        eigenbasis(rng),
        trine(),
        ket_bra(rng),
        SiteMeasurement((("a", [[0, 1], [0, 0]]), ("b", [[1, 0], [0, 0]]))),
    ]


def full_menu(rng):
    return rank_one_menu(rng) + [SiteMeasurement.null(), weak(), random_measurement(rng)]


def static_random(rng, n, rounds, menus):
    """Static protocol whose round r draws each site from menus[r]."""
    return static_protocol(
        [[menu[int(rng.integers(len(menu)))] for _ in range(n)] for menu in menus[:rounds]],
        name="random-static",
    )


def adaptive_random(n, rounds, menus):
    """Each round's choice at a site is a fixed function of the history."""

    def strategy(rnd, history):
        menu = menus[rnd - 1]
        return [menu[zlib.crc32(repr((rnd, site, history)).encode()) % len(menu)]
                for site in range(n)]

    return Protocol(num_sites=n, num_rounds=rounds, strategy=strategy, name="random-adaptive")


def faint_state(n, seed):
    """Random state with a faint half: some outcomes fall below 1e-12."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    v[rng.random(2**n) < 0.5] *= 1e-7
    return PureState(n, 2, v / np.linalg.norm(v))


def assert_matches_oracle(protocol, state, prune_below=0.0):
    n, d = state.num_sites, state.local_dim
    want, want_dropped = oracle_execute(protocol, state, prune_below)
    tree = execute(protocol, state, prune_below)
    assert len(tree.leaves) == len(want)
    assert tree.histories() == tuple(h for h, _, _ in want)
    assert np.allclose(tree.probabilities, [p for _, p, _ in want], rtol=1e-9, atol=1e-15)
    assert tree.dropped_mass == pytest.approx(want_dropped, rel=1e-9, abs=1e-24)
    for leaf, (history, prob, ref) in zip(tree.leaves, want):
        assert leaf.history == history
        assert abs(leaf.probability - prob) <= 1e-12
        # A leaf of probability ~1e-33 (a projector repeated on its own
        # output, say) holds rounding noise on both paths.
        if prob > NOISE:
            assert np.allclose(leaf.state.amplitudes, ref.amplitudes, atol=TOL, rtol=0)
    if tree.dropped_mass > 1e-9:
        return
    work = protocol_work(tree)
    w_lambda, local_term, entropy = oracle_protocol_work(want, n, d)
    assert abs(work.w_lambda - w_lambda) <= TOL
    assert abs(work.local_term - local_term) <= TOL
    assert abs(work.outcome_entropy - entropy) <= TOL
    assert work.leaf_count == len(want)


# ---------------------------------------------------------------------------
# Collapse and dense rounds against the oracle


def test_rank_one_detected_at_construction():
    rng = np.random.default_rng(0)
    for m in rank_one_menu(rng):
        assert m.rank_one is not None
    for m in (SiteMeasurement.null(), weak(), random_measurement(rng)):
        assert m.rank_one is None
    rows, units, weights = SiteMeasurement.x_basis().rank_one
    # Rows come from the matrix's own entries, so they stay exact.
    assert np.array_equal(rows, [[0.5, 0.5], [0.5, -0.5]])
    assert np.array_equal(weights, [2.0, 2.0])
    assert np.allclose(np.linalg.norm(units, axis=1), 1.0)


@pytest.mark.parametrize("prune_below", [0.0, 1e-12])
def test_static_protocols_match_oracle(prune_below):
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        rounds = int(rng.integers(1, 4))
        menus = [full_menu(rng) for _ in range(2)] + [rank_one_menu(rng)]
        if trial % 2:
            menus = [full_menu(rng)] * 3
        proto = static_random(rng, n, rounds, menus[-rounds:])
        state = faint_state(n, 100 + trial) if trial % 3 == 0 else random_state(n, 100 + trial)
        assert_matches_oracle(proto, state, prune_below)


@pytest.mark.parametrize("prune_below", [0.0, 1e-12])
def test_adaptive_protocols_match_oracle(prune_below):
    rng = np.random.default_rng(12)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        rounds = int(rng.integers(1, 4))
        # Mixed menus leave some final-round branches with open sites and others not.
        menus = [full_menu(rng) for _ in range(rounds)]
        if trial % 2:
            menus[-1] = rank_one_menu(rng)
        proto = adaptive_random(n, rounds, menus)
        state = faint_state(n, 300 + trial) if trial % 3 == 0 else random_state(n, 300 + trial)
        assert_matches_oracle(proto, state, prune_below)


@pytest.mark.parametrize("prune_below", [0.0, 1e-12])
def test_weak_round_then_rank_one_round(prune_below):
    rng = np.random.default_rng(13)
    for trial in range(6):
        n = 3
        final = rank_one_menu(rng)
        proto = static_protocol(
            [[weak()] * n, [final[int(rng.integers(len(final)))] for _ in range(n)]],
        )
        assert_matches_oracle(proto, faint_state(n, 500 + trial), prune_below)
        assert_matches_oracle(proto, random_state(n, 500 + trial), prune_below)


def test_structured_states_keep_exact_zeros():
    """Outcomes of probability exactly zero are removed on both paths."""
    cases = [(independent_set_protocol(gen_lattice("cycle", (n,))),
              graph_state(gen_lattice("cycle", (n,)))) for n in (4, 6, 8)]
    cases.append((subset_protocol(6), subset_state(sample_subset(6, 8, seed=3))))
    cases.append((subset_protocol(4), ghz_state(4)))
    cases.append((static_protocol([[SiteMeasurement.x_basis()] * 3]), plus_state(3)))
    cases.append((static_protocol([[SiteMeasurement.x_basis()] * 3]), ghz_state(3)))
    for proto, state in cases:
        assert_matches_oracle(proto, state)
        assert_matches_oracle(proto, state, 1e-12)


def test_refined_protocols_match_oracle():
    """Eigenbasis rounds can have outcomes of exact probability 0 that the
    arithmetic leaves at about 1e-33 on one path and at 0.0 on the other
    (two sites measured in their Schmidt bases, say).  Leaves above 1e-25
    must match one to one; the rest must be that noise."""
    rng = np.random.default_rng(14)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        state = random_state(n, 700 + trial)
        base = static_random(rng, n, int(rng.integers(1, 3)), [full_menu(rng)] * 2)
        proto = refine_rank_one(base, state)
        want, _ = oracle_execute(proto, state)
        tree = execute(proto, state)
        got = tree.outcome_distribution()
        assert [h for h, p, _ in want if p > NOISE] == [h for h, p in got.items() if p > NOISE]
        assert all(p <= NOISE for h, p, _ in want if got.get(h, 0.0) <= NOISE)
        work = protocol_work(tree)
        w_lambda, local_term, entropy = oracle_protocol_work(want, n, 2)
        assert abs(work.w_lambda - w_lambda) <= TOL
        assert abs(work.local_term - local_term) <= TOL
        assert abs(work.outcome_entropy - entropy) <= TOL


def test_qutrit_protocols_match_oracle():
    rng = np.random.default_rng(15)
    menu = [SiteMeasurement.z_basis(3), SiteMeasurement.null(3), eigenbasis(rng, 3)]
    for trial in range(6):
        state = random_state(3, 800 + trial, local_dim=3)
        rounds = [[menu[int(rng.integers(3))] for _ in range(3)] for _ in range(2)]
        assert_matches_oracle(static_protocol(rounds, local_dim=3), state)


# ---------------------------------------------------------------------------
# Batched kernel against the checked single-state path


def _stack(amps, layout):
    """The (L, D) stack in a given memory layout."""
    if layout == "strided":
        # Every other column of a wider array: no row is contiguous.
        wide = np.zeros((amps.shape[0], 2 * amps.shape[1]), dtype=complex)
        wide[:, ::2] = amps
        return wide[:, ::2]
    if layout == "readonly":
        amps.setflags(write=False)
    return amps


@pytest.mark.parametrize(
    "d, n, count, chunk_rows, layout",
    [
        pytest.param(2, 4, 5, None, "contiguous", id="2"),
        pytest.param(3, 3, 5, None, "contiguous", id="3"),
        pytest.param(2, 4, 7, 3, "contiguous", id="ragged-chunks"),  # 3, 3 and 1 rows
        pytest.param(3, 3, 5, 2, "contiguous", id="qutrit-chunks"),  # 2, 2 and 1 rows
        pytest.param(2, 5, 3, 0.5, "contiguous", id="row-over-chunk"),
        pytest.param(2, 4, 7, 3, "strided", id="strided-chunks"),
        pytest.param(3, 3, 5, None, "strided", id="qutrit-strided"),
        pytest.param(2, 4, 7, 3, "readonly", id="readonly-chunks"),
        # Chunks of 2 rows hold the digit table of 3 low qubits or 2 low
        # qutrits, so the higher sites take the per-site dot products.
        pytest.param(2, 6, 5, 2, "contiguous", id="qubit-table-and-dots"),
        pytest.param(3, 4, 5, 2, "contiguous", id="qutrit-table-and-dots"),
        pytest.param(2, 6, 5, 2, "strided", id="strided-table-and-dots"),
    ],
)
def test_site_kernel_matches_reduced_density(monkeypatch, d, n, count, chunk_rows, layout):
    if chunk_rows is not None:
        monkeypatch.setattr(qstate, "_MARGINAL_CHUNK_BYTES", int(chunk_rows * 16 * d**n))
    states = [random_state(n, 900 + k, local_dim=d) for k in range(count)]
    marginals = site_marginals(_stack(np.stack([s.amplitudes for s in states]), layout), n, d)
    entropies = site_entropies(marginals)
    assert marginals.shape == (count, n, d, d) and entropies.shape == (count, n)
    for s, leaf_marginals, leaf_entropies in zip(states, marginals, entropies):
        for site in range(n):
            rho = reduced_density(s, [site])
            assert np.allclose(leaf_marginals[site], rho.matrix, atol=1e-12, rtol=0)
            assert abs(leaf_entropies[site] - von_neumann_entropy(rho)) <= 1e-12


def test_site_kernel_allocates_chunks_not_a_stack_copy():
    # 256 leaves x 2^12 amplitudes = 16 MiB; the kernel may hold its output
    # and a few chunks, not a conjugate copy of the whole stack.
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((256, 2**12)) + 1j * rng.standard_normal((256, 2**12))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = site_marginals(stack, 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * qstate._MARGINAL_CHUNK_BYTES


@pytest.mark.parametrize("d, n", [(2, 16), (3, 10)])
def test_site_kernel_splits_a_row_larger_than_a_chunk(monkeypatch, d, n):
    # One row of about 1 MiB in 16 KiB chunks: the off-diagonal sums take
    # the row piece by piece, with no conjugate copy of the whole row.
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((1, d**n)) + 1j * rng.standard_normal((1, d**n))
    whole = site_marginals(stack, n, d)
    monkeypatch.setattr(qstate, "_MARGINAL_CHUNK_BYTES", 2**14)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = site_marginals(stack, n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * qstate._MARGINAL_CHUNK_BYTES
    assert np.allclose(out, whole, atol=1e-12 * np.abs(whole).max(), rtol=0)


@pytest.mark.parametrize(
    "d, n, chunk, low",
    [(2, 10, 2**20, 10), (2, 12, 2**20, 10), (2, 6, 2 * 16 * 2**6, 3), (3, 4, 2 * 16 * 3**4, 2),
     (3, 3, 2**20, 3), (2, 5, 256, 1)],
)
def test_digit_table_fits_a_quarter_chunk(monkeypatch, d, n, chunk, low):
    # The table covers the most low sites, at most n, whose float64 table fits
    # in a quarter of a chunk; entry [k, s * d + i] is 1 iff digit s of k is i.
    monkeypatch.setattr(qstate, "_MARGINAL_CHUNK_BYTES", chunk)
    assert qstate._table_sites(n, d) == low
    table = qstate._digit_table(d, low)
    assert table.nbytes <= chunk // 4 and not table.flags.writeable
    if low < n:
        assert (low + 1) * d ** (low + 2) * 8 > chunk // 4
    for k in range(d**low):
        for s in range(low):
            row = table[k, s * d : (s + 1) * d]
            assert row.tolist() == [float(k // d**s % d == i) for i in range(d)]


def _qubit_marginals(rng: np.random.Generator) -> np.ndarray:
    """(count, 2, 2) Hermitian PSD unit-trace matrices: random mixtures,
    exactly diagonal ones, pure ones, the zero matrix, the maximally mixed
    one, and near-pure ones whose small eigenvalue sits around the 1e-12
    entropy clamp."""
    def unitaries(count):
        z = rng.standard_normal((count, 2, 2, 2)) @ np.array([1.0, 1j])
        return np.linalg.qr(z)[0]

    def with_spectra(low):
        u = unitaries(len(low))
        diag = np.stack([low, 1.0 - low], axis=-1)[:, :, np.newaxis] * np.eye(2)
        rho = u @ diag @ np.swapaxes(u, -1, -2).conj()
        return (rho + np.swapaxes(rho, -1, -2).conj()) / 2

    diagonal = np.zeros((4, 2, 2), dtype=complex)
    diagonal[:, 0, 0] = [1.0, 0.0, 0.3, 0.5]
    diagonal[:, 1, 1] = 1.0 - diagonal[:, 0, 0]
    return np.concatenate([
        with_spectra(rng.uniform(0.0, 0.5, 54)),
        diagonal,
        with_spectra(np.zeros(10)),
        np.zeros((1, 2, 2), dtype=complex),
        np.eye(2)[np.newaxis] / 2,
        with_spectra(np.repeat([1e-13, 5e-13, 1e-12, 2e-12, 1e-11], 4)),
    ])


def test_closed_form_qubit_spectra_match_eigvalsh():
    rng = np.random.default_rng(17)
    marginals = _qubit_marginals(rng)
    for stack in (marginals, marginals.reshape(5, -1, 2, 2)):
        values = qstate._spectra(stack)
        assert values.shape == stack.shape[:-1]
        assert np.all(values[..., 0] <= values[..., 1])
        assert np.abs(values - np.linalg.eigvalsh(stack)).max() <= 1e-14
    # Within 1e-14 of the 1e-12 clamp the two routes may keep or drop the
    # small eigenvalue, whose term -lam ln lam there is 2.8e-11.
    states = np.trace(marginals, axis1=1, axis2=2).real > 0
    reference = [von_neumann_entropy(DensityOperator(m)) for m in marginals[states]]
    assert np.abs(site_entropies(marginals)[states] - reference).max() <= 3e-11


def test_site_kernel_on_product_and_maximally_mixed_marginals():
    marginals = site_marginals(ghz_state(3).amplitudes[np.newaxis], 3, 2)
    assert np.allclose(site_entropies(marginals), np.log(2.0), atol=1e-12)
    marginals = site_marginals(plus_state(3).amplitudes[np.newaxis], 3, 2)
    assert np.allclose(site_entropies(marginals), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Lazy leaves and the branch budget


def test_leaf_count_builds_no_states(monkeypatch):
    state = random_state(8, 1)
    # Room for 256 children of one amplitude, a float64 probability, a bool
    # mask, an intp parent index and a uint16 outcome index each, not for
    # 256 leaf states.
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 256 * (16 + 8 + 1 + 8 + 2))
    tree = execute(subset_protocol(8), state)
    assert len(tree.leaves) == 256
    assert protocol_work(tree).leaf_count == 256
    with pytest.raises(BranchBudgetError):
        tree.leaves[0]
    # Refining builds no leaf states; every site is sliced, so the refined
    # round measures none of them and the tree stays compact.
    refined = refine_rank_one(subset_protocol(8), state)
    assert len(execute(refined, state).leaves) == 256
    monkeypatch.undo()
    assert_matches_oracle(refined, state)


def test_refine_covers_outcomes_the_collapse_found_impossible():
    """Two sites measured in their Schmidt bases: outcome (e0, e1) has
    probability exactly 0.  A round is measured the same way whether it is
    final or not, so refining again reaches exactly the leaves found."""
    state = random_state(2, 0)
    once = refine_rank_one(static_protocol([[weak(), weak()]]), state)
    collapsed = execute(once, state)
    twice = refine_rank_one(once, state)
    tree = execute(twice, state)
    reached = {h[:2] for h in tree.histories()}
    assert len(reached) == len(collapsed.leaves)
    assert abs(protocol_work(tree).w_lambda - protocol_work(collapsed).w_lambda) <= 1e-9


def test_refining_a_rank_one_round_is_an_exact_no_op():
    """Every site of a rank-one round is sliced, a known pure factor; the
    refined round gives it the null measurement, so no leaf is added, not
    even one of probability about 1e-33, and the figure does not move."""
    rng = np.random.default_rng(19)
    state = random_state(4, 5)
    for m in (eigenbasis(rng), trine(), ket_bra(rng)):
        base = static_protocol([[m] * 4])
        tree, refined = execute(base, state), execute(refine_rank_one(base, state), state)
        assert np.array_equal(refined.probabilities, tree.probabilities)
        assert protocol_work(refined).w_lambda == protocol_work(tree).w_lambda
        assert all(h[1] == ("phi",) * 4 for h in refined.histories())


def test_dense_split_over_budget_raises(monkeypatch):
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 64 * 256 * 16)
    with pytest.raises(BranchBudgetError):
        execute(static_protocol([[weak()] * 8]), random_state(8, 2))


def test_collapse_over_budget_raises(monkeypatch):
    # Per leaf: one amplitude, probability, mask, parent and uint16 outcome.
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 3**6 * (16 + 8 + 1 + 8 + 2) - 1)
    with pytest.raises(BranchBudgetError):
        execute(static_protocol([[trine()] * 6]), random_state(6, 3))
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 3**6 * (16 + 8 + 1 + 8 + 2))
    assert len(execute(static_protocol([[trine()] * 6]), random_state(6, 3)).leaves) == 3**6


def test_rank_one_sites_slice_in_every_round(monkeypatch):
    """Z on half the sites, then Z on the other half: each branch keeps
    only its open sites, so the tree never holds more than 2^16 amplitudes,
    and it equals the one-round all-Z tree."""
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 16 << 20)
    state = random_state(16, 4)
    z, null = SiteMeasurement.z_basis(), SiteMeasurement.null()
    tree = execute(static_protocol([[z] * 8 + [null] * 8, [null] * 8 + [z] * 8]), state)
    once = execute(subset_protocol(16), state)
    assert len(tree.leaves) == len(once.leaves)
    assert np.abs(tree.probabilities - once.probabilities).max() <= 1e-12
    work, want = protocol_work(tree), protocol_work(once)
    assert abs(work.w_lambda - want.w_lambda) <= TOL
    assert abs(work.local_term - want.local_term) <= TOL
    assert abs(work.outcome_entropy - want.outcome_entropy) <= TOL


def test_budget_counts_dense_site_columns(monkeypatch):
    """A weak round after a Z round leaves 2^16 leaves of one residual
    amplitude (1 MiB) but eight dense site columns each (16 MiB)."""
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", 4 << 20)
    proto = static_protocol([[SiteMeasurement.z_basis()] * 8, [weak()] * 8])
    with pytest.raises(BranchBudgetError):
        execute(proto, random_state(8, 5))


def test_budget_counts_index_arrays(monkeypatch):
    """Weak then X leaves 2^16 leaves of one amplitude (1 MiB), but each
    also takes a probability, mask, parent index and two outcome indices
    while it is made: 37 B a leaf, 2.3 MiB in all."""
    proto = static_protocol([[weak()] * 8, [SiteMeasurement.x_basis()] * 8])
    amplitude_bytes = 2**16 * 16
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", amplitude_bytes * 3 // 2)
    with pytest.raises(BranchBudgetError):
        execute(proto, random_state(8, 6))
    monkeypatch.setattr(locc, "BRANCH_BUDGET_BYTES", amplitude_bytes * 5 // 2)
    assert len(execute(proto, random_state(8, 6)).leaves) == 2**16


def test_trailing_rounds_keep_the_leaves():
    """One leaf rule on one path: a round measures the same way whether a
    null round follows it or not."""
    rng = np.random.default_rng(16)
    for trial in range(6):
        menus = [full_menu(rng), rank_one_menu(rng)]
        proto = static_random(rng, 3, 2, menus)
        state = random_state(3, 1000 + trial)
        padded = static_protocol([proto.strategy(1, ()), proto.strategy(2, ()),
                                  [SiteMeasurement.null()] * 3])
        want, got = execute(proto, state), execute(padded, state)
        assert np.array_equal(got.probabilities, want.probabilities)
        assert [h[:2] for h in got.histories()] == list(want.histories())


def test_outcome_index_dtype_holds_the_outcome_count():
    """256 outcomes in a round, the first count past uint8, whether spread
    over eight Z sites or held by one site: histories, a following round
    and the work figures still match the oracle."""
    z, null = SiteMeasurement.z_basis(), SiteMeasurement.null()
    wide = SiteMeasurement(z.ops + tuple((f"z{k}", np.zeros((2, 2))) for k in range(2, 256)))
    state = random_state(9, 7)
    spread = [null] + [z] * 8
    assert_matches_oracle(static_protocol([spread]), state)
    assert_matches_oracle(static_protocol([spread, [weak()] + [null] * 8]), state)
    assert_matches_oracle(static_protocol([[wide] + [null] * 8, spread]), state)


def test_outcome_indices_past_64_bits():
    """700 outcomes (698 of them zero operators) on each of 7 sites: the
    round's index space passes 2^64, yet histories and states stay exact."""
    zeros = tuple((f"z{k}", np.zeros((2, 2))) for k in range(2, 700))
    padded = SiteMeasurement(SiteMeasurement.z_basis().ops + zeros)
    state = random_state(7, 6)
    tree = execute(static_protocol([[padded] * 7]), state)
    want = execute(subset_protocol(7), state)
    assert tree.histories() == want.histories()
    assert np.allclose(tree.probabilities, want.probabilities, rtol=1e-14, atol=0)
    for i in (0, 77, 127):
        assert np.allclose(tree.leaves[i].state.amplitudes, want.leaves[i].state.amplitudes)
