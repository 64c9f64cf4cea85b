"""Tests for measurement protocols, branch trees, and certified work."""

import re

import numpy as np
import pytest

from conftest import random_protocol, random_state
from loccwork.ensembles import ghz_state, graph_state, plus_state, subset_state, zero_state, SubsetSpec, sample_subset
from loccwork.graphs import Graph, gen_lattice, greedy_independent_set
from loccwork.locc import (
    BranchTree,
    Protocol,
    ProtocolError,
    ProtocolWork,
    SiteMeasurement,
    best_lower_bound,
    execute,
    independent_set_protocol,
    load_protocol,
    null_protocol,
    protocol_work,
    refine_rank_one,
    static_protocol,
    subset_protocol,
)
from loccwork.qstate import StateSpecError
from loccwork.workbounds import w_local

LN2 = np.log(2.0)


def test_site_measurement_builders_complete():
    for m in (SiteMeasurement.null(), SiteMeasurement.z_basis(), SiteMeasurement.x_basis(), SiteMeasurement.z_basis(3)):
        total = sum(k.conj().T @ k for _, k in m.ops)
        assert np.allclose(total, np.eye(m.local_dim), atol=1e-12)


def test_site_measurement_rejects_incomplete_and_duplicates():
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SiteMeasurement((("0", proj),))
    with pytest.raises(ValueError):
        SiteMeasurement((("a", proj), ("a", np.eye(2) - proj)))


def test_null_protocol_single_leaf():
    s = random_state(3, seed=1)
    tree = execute(null_protocol(3), s)
    assert len(tree.leaves) == 1
    leaf = tree.leaves[0]
    assert leaf.history == (("phi", "phi", "phi"),)
    assert abs(leaf.probability - 1.0) < 1e-12
    assert np.allclose(leaf.state.amplitudes, s.amplitudes)


def test_computational_on_plus_state():
    tree = execute(subset_protocol(3), plus_state(3))
    assert len(tree.leaves) == 8
    for leaf in tree.leaves:
        assert abs(leaf.probability - 0.125) < 1e-12
        # Leaf state is the basis state matching the outcome labels.
        bits = leaf.history[0]
        idx = sum(int(b) * 2**i for i, b in enumerate(bits))
        assert abs(abs(leaf.state.amplitudes[idx]) - 1.0) < 1e-12


def test_leaf_slices_match_item_reads():
    leaves = execute(subset_protocol(3), plus_state(3)).leaves
    for part, indices in [(leaves[2:5], range(2, 5)), (leaves[::-1], range(7, -1, -1))]:
        assert isinstance(part, list) and len(part) == len(indices)
        for node, i in zip(part, indices):
            assert node.history == leaves[i].history
            assert node.probability == leaves[i].probability
            np.testing.assert_array_equal(node.state.amplitudes, leaves[i].state.amplitudes)


def test_leaf_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        proto = random_protocol(rng, n)
        tree = execute(proto, random_state(n, seed=200 + trial))
        assert abs(tree.total_probability + tree.dropped_mass - 1.0) < 1e-8
        for leaf in tree.leaves:
            assert abs(np.linalg.norm(leaf.state.amplitudes) - 1.0) < 1e-10


def test_child_probabilities_sum_to_parent():
    rng = np.random.default_rng(42)
    proto = static_protocol(
        [
            [SiteMeasurement.z_basis(), SiteMeasurement.null(), SiteMeasurement.x_basis()],
            [SiteMeasurement.x_basis(), SiteMeasurement.z_basis(), SiteMeasurement.null()],
        ],
        name="two-round",
    )
    tree = execute(proto, random_state(3, seed=77))
    by_prefix: dict = {}
    for leaf in tree.leaves:
        by_prefix.setdefault(leaf.history[:1], 0.0)
        by_prefix[leaf.history[:1]] += leaf.probability
    one_round = execute(
        static_protocol([[SiteMeasurement.z_basis(), SiteMeasurement.null(), SiteMeasurement.x_basis()]]),
        random_state(3, seed=77),
    )
    for leaf in one_round.leaves:
        assert abs(by_prefix[(leaf.history[0],)] - leaf.probability) < 1e-10


def test_adaptive_strategy_sees_history():
    # Round 2 measures site 1 in Z after outcome "0", in X after "1".
    def strategy(rnd, history):
        if rnd == 1:
            return [SiteMeasurement.z_basis(), SiteMeasurement.null()]
        first = history[0][0]
        second = SiteMeasurement.z_basis() if first == "0" else SiteMeasurement.x_basis()
        return [SiteMeasurement.null(), second]

    proto = Protocol(num_sites=2, num_rounds=2, strategy=strategy, name="adaptive")
    tree = execute(proto, plus_state(2))
    labels = {leaf.history for leaf in tree.leaves}
    assert (("0", "phi"), ("phi", "0")) in labels or (("0", "phi"), ("phi", "1")) in labels
    assert any(h[1][1] in "+-" for h in labels if h[0][0] == "1")


def test_strategy_undefined_history_raises():
    table = {(): [SiteMeasurement.z_basis(), SiteMeasurement.z_basis()]}

    def strategy(rnd, history):
        return table[history]

    proto = Protocol(num_sites=2, num_rounds=2, strategy=strategy, name="partial")
    with pytest.raises(ProtocolError):
        execute(proto, plus_state(2))


def test_execute_validates_inputs():
    with pytest.raises(ValueError):
        execute(null_protocol(2), random_state(3, seed=0))
    with pytest.raises(ValueError):
        execute(null_protocol(3), random_state(3, seed=0), prune_below=1e-6)


def test_prune_accounting():
    from loccwork.qstate import PureState

    eps = 1e-7
    amps = np.array([np.sqrt(1 - eps**2), eps], dtype=complex)
    s = PureState(1, 2, amps)
    tree = execute(static_protocol([[SiteMeasurement.z_basis()]]), s, prune_below=1e-12)
    assert len(tree.leaves) == 1
    assert abs(tree.dropped_mass - eps**2) < 1e-16


def test_protocol_work_null_equals_local_functional():
    for trial in range(10):
        s = random_state(4, seed=900 + trial)
        work = protocol_work(execute(null_protocol(4), s))
        assert abs(work.w_lambda - w_local(s)) < 1e-9
        assert work.leaf_count == 1


def test_protocol_work_computational_on_basis_state():
    work = protocol_work(execute(subset_protocol(5), zero_state(5)))
    assert abs(work.w_lambda - 5 * LN2) < 1e-12
    assert work.outcome_entropy < 1e-12


def test_protocol_work_computational_on_ghz():
    work = protocol_work(execute(subset_protocol(3), ghz_state(3)))
    assert abs(work.w_lambda - 2 * LN2) < 1e-12
    assert abs(work.outcome_entropy - LN2) < 1e-12
    assert work.leaf_count == 2


def test_subset_protocol_work_formula():
    # Uniform support of size K: work is N ln 2 - ln K, leaves count K.
    spec = sample_subset(6, 8, seed=3)
    tree = execute(subset_protocol(6), subset_state(spec))
    work = protocol_work(tree)
    assert work.leaf_count == 8
    assert abs(work.w_lambda - (6 * LN2 - np.log(8))) < 1e-9


def test_subset_protocol_on_full_support_gives_zero():
    work = protocol_work(execute(subset_protocol(3), plus_state(3)))
    assert abs(work.w_lambda) < 1e-9


def test_independent_set_protocol_on_cycle_six():
    g = gen_lattice("cycle", (6,))
    proto = independent_set_protocol(g)
    assert proto.meta["independent_set"] == (0, 2, 4)
    tree = execute(proto, graph_state(g))
    assert len(tree.leaves) == 8
    for leaf in tree.leaves:
        assert abs(leaf.probability - 0.125) < 1e-12
    work = protocol_work(tree)
    assert abs(work.w_lambda - 3 * LN2) < 1e-9
    assert abs(work.outcome_entropy - 3 * LN2) < 1e-9


def test_independent_set_outcomes_satisfy_parity_rule():
    g = gen_lattice("cycle", (6,))
    proto = independent_set_protocol(g)
    s_sites = set(proto.meta["independent_set"])
    tree = execute(proto, graph_state(g))
    for leaf in tree.leaves:
        labels = leaf.history[0]
        for v in s_sites:
            par = sum(int(labels[j]) for j in g.neighbors(v)) % 2
            assert labels[v] == ("+" if par == 0 else "-")


def test_independent_set_protocol_edgeless_graph():
    g = Graph(3, frozenset())
    work = protocol_work(execute(independent_set_protocol(g), graph_state(g)))
    assert abs(work.w_lambda - 3 * LN2) < 1e-9


def test_independent_set_protocol_path_graph():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    tree = execute(independent_set_protocol(g), graph_state(g))
    assert len(tree.leaves) == 2
    assert abs(protocol_work(tree).w_lambda - 2 * LN2) < 1e-9


def test_refine_rank_one_ghz_null():
    s = ghz_state(3)
    refined = refine_rank_one(null_protocol(3), s)
    assert refined.num_rounds == 2
    work = protocol_work(execute(refined, s))
    assert abs(work.w_lambda - 2 * LN2) < 1e-9
    assert work.w_lambda >= w_local(s) - 1e-9


def test_refine_rank_one_never_decreases_work():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        s = random_state(n, seed=4000 + trial)
        proto = random_protocol(rng, n)
        base = protocol_work(execute(proto, s)).w_lambda
        refined = protocol_work(execute(refine_rank_one(proto, s), s)).w_lambda
        assert refined >= base - 1e-9


def test_refine_of_rank_one_protocol_is_noop():
    for trial in range(5):
        s = random_state(3, seed=6000 + trial)
        base = protocol_work(execute(subset_protocol(3), s)).w_lambda
        refined = protocol_work(execute(refine_rank_one(subset_protocol(3), s), s)).w_lambda
        assert abs(refined - base) < 1e-9


def test_work_never_exceeds_global_budget():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        s = random_state(n, seed=7000 + trial)
        proto = random_protocol(rng, n)
        work = protocol_work(execute(proto, s))
        assert work.w_lambda <= n * LN2 + 1e-9


def test_best_lower_bound_picks_maximum():
    s = ghz_state(3)
    value, name = best_lower_bound(s, [null_protocol(3), subset_protocol(3)])
    assert abs(value - 2 * LN2) < 1e-9
    assert name == "computational"


def test_best_lower_bound_tie_keeps_first():
    s = ghz_state(2)
    a = null_protocol(2)
    b = null_protocol(2)
    object.__setattr__(b, "name", "null-again")
    value, name = best_lower_bound(s, [a, b])
    assert name == "null"


@pytest.mark.parametrize("protocol, prune, message", [
    (null_protocol(2, 3), 0.0,
     "protocol measures sites of dimension 3 but the state's have dimension 2"),
    (null_protocol(3), 0.0, "protocol acts on 3 sites but the state has 2"),
    (null_protocol(2), 1e-6, "prune_below must lie in [0, 1e-12]"),
])
def test_execute_rejects_with_the_cli_wording(protocol, prune, message):
    with pytest.raises(StateSpecError, match=re.escape(message)):
        execute(protocol, ghz_state(2), prune_below=prune)


def test_protocol_work_identity_invariant():
    with pytest.raises(ValueError):
        ProtocolWork(w_lambda=1.0, local_term=2.0, outcome_entropy=0.5, leaf_count=1)


def test_protocol_file_round_trip(tmp_path):
    text = """# two rounds on three sites
sites 3
measurement HAD
op h0 0.5 0 0.5 0 0.5 0 0.5 0
op h1 0.5 0 -0.5 0 -0.5 0 0.5 0
end
round Z X null
round HAD Z Z
"""
    # The same file with a comment after every directive: # starts a
    # comment anywhere on a line.
    commented = "".join(f"{line}   # note {i}\n" for i, line in enumerate(text.splitlines()))
    state = random_state(3, seed=31)
    trees = []
    for body in (text, commented):
        p = tmp_path / "proto.txt"
        p.write_text(body)
        proto = load_protocol(p)
        assert proto.num_sites == 3 and proto.num_rounds == 2
        tree = execute(proto, state)
        assert abs(tree.total_probability - 1.0) < 1e-8
        # The custom block is the +/- projector pair, so round 2 site 0
        # labels must be h0/h1.
        assert {leaf.history[1][0] for leaf in tree.leaves} <= {"h0", "h1"}
        trees.append(tree)
    assert trees[0].outcome_distribution() == trees[1].outcome_distribution()


def test_standard_measurements_are_one_shared_object_each(tmp_path):
    z, x, null = SiteMeasurement.z_basis(), SiteMeasurement.x_basis(), SiteMeasurement.null()
    # However the site dimension is passed, each kind is one object per dimension.
    assert SiteMeasurement.z_basis(2) is z and SiteMeasurement.z_basis(local_dim=2) is z
    assert SiteMeasurement.null(2) is null and SiteMeasurement.null(np.int64(2)) is null
    assert SiteMeasurement.z_basis(3) is SiteMeasurement.z_basis(3) is not z
    assert SiteMeasurement.x_basis() is x
    with pytest.raises(TypeError):  # as before caching, not the cached qubit null
        SiteMeasurement.null(2.0)
    p = tmp_path / "proto.txt"
    p.write_text("sites 3\nround Z X null\n")
    got = load_protocol(p).strategy(1, ())
    assert len(got) == 3 and all(a is b for a, b in zip(got, [z, x, null]))
    row = independent_set_protocol(gen_lattice("cycle", (6,))).strategy(1, ())
    assert {id(m) for m in row} == {id(z), id(x)}
    assert all(m is z for m in subset_protocol(4).strategy(1, ()))
    assert all(m is null for m in null_protocol(4).strategy(1, ()))


def test_step_maps_are_built_once_and_read_only():
    # execute applies m.kraus: a rank-one set's rows as (1, d) maps, scaled
    # by root_weights, or else the stacked operators.
    hi, lo = np.sqrt(0.8), np.sqrt(0.2)
    weak = SiteMeasurement((("w0", np.diag([hi, lo])), ("w1", np.diag([lo, hi]))))
    x = SiteMeasurement.x_basis()
    rows, _, weights = x.rank_one
    assert np.array_equal(x.kraus, rows[:, np.newaxis])
    assert np.array_equal(x.root_weights, np.sqrt(weights))
    assert np.array_equal(weak.kraus, np.array([k for _, k in weak.ops]))
    assert weak.root_weights is None
    assert not any(a.flags.writeable for a in (x.kraus, x.root_weights, weak.kraus))


@pytest.mark.parametrize(
    "body",
    [
        "round Z Z\n",  # rounds before sites
        "sites 2\nround Z\n",  # wrong token count
        "sites 2\nround Z Q\n",  # unknown token
        "sites 2\nmeasurement M\nop a 1 0 0 0 0 0 0 0\nend\nround M Z\n",  # incomplete kraus
        "sites 2\nmeasurement M\nop a 1 0\nend\nround M Z\n",  # short op line
        "sites 2\nmeasurement M\nop a x 0 0 0 0 0 0 0\nend\nround M Z\n",  # non-numeric
        "sites 2\nmeasurement M\nround Z Z\n",  # unterminated block
        "sites 2\n",  # no rounds
        "sites two\nround Z Z\n",  # bad count
    ],
)
def test_protocol_file_rejects_malformed(tmp_path, body):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(ValueError):
        load_protocol(p)
