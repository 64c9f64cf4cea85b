"""Tests for state containers and linear-algebra primitives.

The partial-trace oracle below works by explicit index arithmetic, with no
reshapes or transposes, so it cannot share a bug with the implementation.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from loccwork import qstate
from loccwork.qstate import (
    DensityOperator,
    PureState,
    apply_kraus,
    apply_kraus_vector,
    apply_two_site_vector,
    make_pure,
    overlap,
    reduced_density,
    shannon_entropy,
    von_neumann_entropy,
)
from loccwork.workbounds import eg_schmidt

LN2 = np.log(2.0)

# Frozen by hand: -(3/4) ln(3/4) - (1/4) ln(1/4).
ENTROPY_3_4 = 0.5623351446188083


def _flat_index(digits_by_site: dict, d: int) -> int:
    return sum(z * d**site for site, z in digits_by_site.items())


def naive_reduced_density(amps: np.ndarray, n: int, d: int, keep: list) -> np.ndarray:
    """Partial trace via explicit little-endian index arithmetic."""
    rest = [s for s in range(n) if s not in keep]
    dk, dr = d ** len(keep), d ** len(rest)
    rho = np.zeros((dk, dk), dtype=complex)
    for a in range(dk):
        digits_a = {s: (a // d**i) % d for i, s in enumerate(keep)}
        for b in range(dk):
            digits_b = {s: (b // d**i) % d for i, s in enumerate(keep)}
            acc = 0.0j
            for r in range(dr):
                digits_r = {s: (r // d**i) % d for i, s in enumerate(rest)}
                ia = _flat_index({**digits_a, **digits_r}, d)
                ib = _flat_index({**digits_b, **digits_r}, d)
                acc += amps[ia] * np.conj(amps[ib])
            rho[a, b] = acc
    return rho


def random_pure(n: int, d: int, seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return PureState(n, d, v / np.linalg.norm(v))


def ghz(n: int) -> PureState:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return PureState(n, 2, v)


def test_site_list_validation():
    # One rule for reduced_density's keep and eg_schmidt's cut: integers
    # (numpy ints too) of 0..N-1, strictly increasing; 0.7 is not site 0.
    s = random_pure(3, 2, seed=11)
    for sites in [(2, 1), (1, 1), (-1, 0), (0.7,)]:
        with pytest.raises(ValueError):
            reduced_density(s, sites)
        with pytest.raises(ValueError):
            eg_schmidt(s, sites)
    np.testing.assert_array_equal(reduced_density(s, np.array([0, 2])).matrix,
                                  reduced_density(s, [0, 2]).matrix)
    assert eg_schmidt(s, (np.int64(1),)) == eg_schmidt(s, (1,))


def test_make_pure_basic():
    s = make_pure([1, 0, 0, 0], num_sites=2)
    assert s.num_sites == 2 and s.local_dim == 2
    assert np.allclose(s.amplitudes, [1, 0, 0, 0])


def test_make_pure_renormalizes_small_drift():
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2) * (1 + 5e-7)
    s = make_pure(v, num_sites=1)
    assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12


def test_make_pure_rejects_bad_input():
    with pytest.raises(ValueError):
        make_pure([1, 0, 0], num_sites=2)  # wrong length
    with pytest.raises(ValueError):
        make_pure([0, 0, 0, 0], num_sites=2)  # zero vector
    with pytest.raises(ValueError):
        make_pure([1.1, 0, 0, 0], num_sites=2)  # norm too far off


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1, 2, np.array([1.0, 1.0]))


def test_pure_state_amplitudes_frozen():
    s = make_pure([1, 0], num_sites=1)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_reduced_density_product_state():
    rho = reduced_density(make_pure([1, 0, 0, 0], 2), keep=[0])
    assert np.allclose(rho.matrix, [[1, 0], [0, 0]])


def test_reduced_density_ghz_marginal_is_maximally_mixed():
    for site in range(3):
        rho = reduced_density(ghz(3), keep=[site])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_site_order_convention():
    # |psi> = |z_0=1, z_1=0, z_2=0> lives at flat index 1.
    v = np.zeros(8, dtype=complex)
    v[1] = 1.0
    s = PureState(3, 2, v)
    rho0 = reduced_density(s, keep=[0]).matrix
    rho1 = reduced_density(s, keep=[1]).matrix
    assert np.allclose(rho0, [[0, 0], [0, 1]])
    assert np.allclose(rho1, [[1, 0], [0, 0]])
    # Two-site marginal of sites (0, 1): row index is z_0 + 2*z_1.
    rho01 = reduced_density(s, keep=[0, 1]).matrix
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(rho01, expect)


@pytest.mark.parametrize("n,d,keep", [(2, 2, [0]), (3, 2, [0, 2]), (3, 2, [1]), (4, 2, [1, 3]), (2, 3, [1]), (3, 3, [0, 2])])
def test_reduced_density_matches_naive_oracle(n, d, keep):
    s = random_pure(n, d, seed=100 * n + 10 * d + keep[0])
    got = reduced_density(s, keep=keep).matrix
    want = naive_reduced_density(s.amplitudes, n, d, keep)
    assert np.allclose(got, want, atol=1e-12)


def test_reduced_density_oracle_sweep_random_states():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        s = random_pure(n, 2, seed=1000 + trial)
        got = reduced_density(s, keep=keep).matrix
        want = naive_reduced_density(s.amplitudes, n, 2, keep)
        assert np.allclose(got, want, atol=1e-12)


def test_reduced_density_rejects_bad_sites():
    s = ghz(3)
    with pytest.raises(ValueError):
        reduced_density(s, keep=[3])
    with pytest.raises(ValueError):
        reduced_density(s, keep=[])


def test_full_keep_is_rank_one():
    s = random_pure(3, 2, seed=5)
    rho = reduced_density(s, keep=[0, 1, 2])
    assert von_neumann_entropy(rho) < 1e-12


def test_von_neumann_entropy_known_values():
    assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == 0.0
    assert abs(von_neumann_entropy(DensityOperator(np.eye(2) / 2)) - LN2) < 1e-14
    got = von_neumann_entropy(DensityOperator(np.diag([0.75, 0.25])))
    assert abs(got - ENTROPY_3_4) < 1e-14


def test_von_neumann_entropy_range_on_random_densities():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4, 8):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a @ a.conj().T
        rho = DensityOperator(m / np.trace(m).real)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= np.log(dim) + 1e-9


def test_shannon_entropy_values():
    assert shannon_entropy({"a": 1.0}) == 0.0
    assert abs(shannon_entropy({k: 0.125 for k in range(8)}) - 3 * LN2) < 1e-12
    assert abs(shannon_entropy({"x": 0.75, "y": 0.25}) - ENTROPY_3_4) < 1e-14


def test_shannon_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        shannon_entropy({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        shannon_entropy({"a": 0.5, "b": 0.4})


def test_overlap_conjugates_first_argument():
    a = make_pure([1 / np.sqrt(2), 1j / np.sqrt(2)], num_sites=1)
    b = make_pure([1, 0], num_sites=1)
    assert abs(overlap(a, b) - (1 / np.sqrt(2))) < 1e-14
    assert abs(overlap(b, a) - (1 / np.sqrt(2))) < 1e-14
    c = make_pure([0, 1], num_sites=1)
    assert abs(overlap(a, c) - (-1j / np.sqrt(2))) < 1e-14


def test_overlap_plus_plus_with_ghz2():
    plus2 = make_pure(np.full(4, 0.5), num_sites=2)
    assert abs(overlap(plus2, ghz(2)) - 1 / np.sqrt(2)) < 1e-14


def test_overlap_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap(ghz(2), ghz(3))


def test_apply_kraus_projector_on_plus():
    plus = make_pure([1 / np.sqrt(2), 1 / np.sqrt(2)], num_sites=1)
    vec, prob = apply_kraus(plus, 0, np.array([[1, 0], [0, 0]]))
    assert abs(prob - 0.5) < 1e-14
    assert np.allclose(vec, [1 / np.sqrt(2), 0])


def test_apply_kraus_site_targeting():
    # X on site 1 of |000> lands on flat index 2.
    zero3 = make_pure([1] + [0] * 7, num_sites=3)
    x = np.array([[0, 1], [1, 0]])
    vec, prob = apply_kraus(zero3, 1, x)
    assert abs(prob - 1.0) < 1e-14
    assert abs(vec[2] - 1.0) < 1e-14


def test_apply_kraus_ghz_collapse():
    vec, prob = apply_kraus(ghz(3), 1, np.array([[1, 0], [0, 0]]))
    assert abs(prob - 0.5) < 1e-14
    normalized = vec / np.sqrt(prob)
    assert abs(normalized[0] - 1.0) < 1e-12


def test_apply_kraus_unitary_preserves_norm():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = random_pure(3, 2, seed=21)
    for site in range(3):
        _, prob = apply_kraus(s, site, h)
        assert abs(prob - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("site", [0, 1, 2])
@pytest.mark.parametrize("vec_batch, op_batch", [
    ((3, 1), (2,)), ((3,), ()), ((), (3,)), ((2, 3), (3,)),
])
def test_apply_kraus_batch_axes_match_kron(d, site, vec_batch, op_batch):
    # The map on site `site` of 3 sites is kron(I, K, I) in little-endian
    # layout, for a (d, d) operator and for a (1, d) row, which contracts
    # the site out.
    n = 3
    rng = np.random.default_rng(10 * d + site)
    vecs = rng.standard_normal(vec_batch + (d**n, 2)) @ np.array([1.0, 1j])
    batch = np.broadcast_shapes(vec_batch, op_batch)
    for e in (d, 1):
        ops = rng.standard_normal(op_batch + (e, d, 2)) @ np.array([1.0, 1j])
        out = apply_kraus_vector(vecs, n, d, site, ops)
        assert out.shape == batch + (e * d ** (n - 1),)
        vb, ob = np.broadcast_to(vecs, batch + (d**n,)), np.broadcast_to(ops, batch + (e, d))
        for idx in np.ndindex(*batch):
            full = np.kron(np.kron(np.eye(d ** (n - site - 1)), ob[idx]), np.eye(d**site))
            assert np.abs(out[idx] - full @ vb[idx]).max() < 1e-12
            assert np.array_equal(out[idx], apply_kraus_vector(vb[idx], n, d, site, ob[idx]))


def test_apply_kraus_rejects_bad_operator_and_site():
    v = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        apply_kraus_vector(v, 3, 2, 0, np.eye(3))
    with pytest.raises(ValueError):
        apply_kraus_vector(v, 3, 2, 3, np.eye(2))


def test_complete_kraus_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    # Random complete two-outcome measurement: K_i = G_i S^{-1/2}.
    g = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    s_mat = sum(k.conj().T @ k for k in g)
    w, v = np.linalg.eigh(s_mat)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    kraus = [k @ inv_sqrt for k in g]
    state = random_pure(4, 2, seed=9)
    for site in range(4):
        total = sum(apply_kraus(state, site, k)[1] for k in kraus)
        assert abs(total - 1.0) < 1e-10


def test_apply_two_site_cnot_convention():
    # CNOT with control z_1, target z_2 in pair basis |z_1 + 2*z_2>.
    u = np.zeros((4, 4))
    u[0, 0] = u[3, 1] = u[2, 2] = u[1, 3] = 1.0
    v = np.zeros(8, dtype=complex)
    v[2] = 1.0  # |z_1 = 1>
    out = apply_two_site_vector(v, 3, 2, 1, u)
    assert abs(out[6] - 1.0) < 1e-14  # |z_1 = 1, z_2 = 1>


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("site", [0, 1, 2])
@pytest.mark.parametrize("vec_batch, gate_batch", [
    ((3,), (3,)), ((3,), ()), ((), (3,)), ((2, 3), (2, 3)), ((2, 3), (3,)),
])
def test_apply_two_site_batch_axes_match_kron(d, site, vec_batch, gate_batch):
    # The gate on (site, site+1) of 4 sites is kron(I, U, I) in little-endian layout.
    n, m = 4, d * d
    rng = np.random.default_rng(10 * d + site)
    vecs = rng.standard_normal(vec_batch + (d**n, 2)) @ np.array([1.0, 1j])
    gates = rng.standard_normal(gate_batch + (m, m, 2)) @ np.array([1.0, 1j])
    out = apply_two_site_vector(vecs, n, d, site, gates)
    batch = np.broadcast_shapes(vec_batch, gate_batch)
    assert out.shape == batch + (d**n,)
    vecs, gates = np.broadcast_to(vecs, batch + (d**n,)), np.broadcast_to(gates, batch + (m, m))
    for idx in np.ndindex(*batch):
        full = np.kron(np.kron(np.eye(d ** (n - site - 2)), gates[idx]), np.eye(d**site))
        assert np.abs(out[idx] - full @ vecs[idx]).max() < 1e-12


def test_apply_two_site_rejects_bad_gate_and_pair():
    v = np.zeros((2, 8), dtype=complex)
    with pytest.raises(ValueError, match="gate shape"):
        apply_two_site_vector(v, 3, 2, 0, np.eye(8))
    with pytest.raises(ValueError, match="out of range"):
        apply_two_site_vector(v, 3, 2, 2, np.eye(4))


def _complex_normal(rng, shape: tuple) -> np.ndarray:
    return rng.standard_normal(shape + (2,)) @ np.array([1.0, 1j])


def _in_layout(a: np.ndarray, layout: str, last_axes: int) -> np.ndarray:
    """a's values as a C-contiguous array, a strided view or a read-only array.

    A strided vector stack is every other entry of a wider buffer; a strided
    operator stack is the transposed view of its transposed copy.
    """
    if layout == "strided" and last_axes == 1:
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    if layout == "strided":
        return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)
    a = a.copy()
    a.flags.writeable = layout != "readonly"
    return a


@pytest.mark.parametrize("layout", ["contiguous", "strided", "readonly"])
@pytest.mark.parametrize("vec_batch, op_batch", [((2, 1), (3,)), ((3,), ()), ((), (3,))])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_local_kernels_match_kron_at_every_block(d, n, vec_batch, op_batch, layout):
    # Both public kernels at every block position of N sites: a (1, d) row and
    # a (d, d) map on one site and a (d**2, d**2) gate on two act as
    # kron(I, op, I) in little-endian layout.  Either operand's batch axes
    # broadcast against the other's, and strided or read-only inputs give the
    # same result as contiguous ones.
    rng = np.random.default_rng(100 * d + 10 * n + len(vec_batch))
    vecs = _in_layout(_complex_normal(rng, vec_batch + (d**n,)), layout, 1)
    batch = np.broadcast_shapes(vec_batch, op_batch)
    kernels = [(apply_kraus_vector, 1, 1), (apply_kraus_vector, 1, d),
               (apply_two_site_vector, 2, d * d)]
    for kernel, width, e in kernels:
        for site in range(n - width + 1):
            ops = _in_layout(_complex_normal(rng, op_batch + (e, d**width)), layout, 2)
            out = kernel(vecs, n, d, site, ops)
            assert out.shape == batch + (e * d ** (n - width),)
            vb = np.broadcast_to(vecs, batch + (d**n,))
            ob = np.broadcast_to(ops, batch + (e, d**width))
            for idx in np.ndindex(*batch):
                full = np.kron(np.kron(np.eye(d ** (n - site - width)), ob[idx]), np.eye(d**site))
                assert np.abs(out[idx] - full @ vb[idx]).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("site", [0, 1])
def test_rank_one_row_on_zero_block_is_exact_zero(d, site):
    # Site 0 takes the right-multiply layout, site 1 of 3 (b == A == d) the
    # operator-first one.  Every block (the d amplitudes that differ only at
    # the site) with outer index 1 is zero, so the row's output there is
    # exactly 0.0.
    n = 3
    rng = np.random.default_rng(d + 10 * site)
    vecs = _complex_normal(rng, (2, d**n))
    vecs.reshape(2, d ** (n - site - 1), d, d**site)[:, 1] = 0.0
    out = apply_kraus_vector(vecs, n, d, site, _complex_normal(rng, (1, d)))
    blocks = out.reshape(2, d ** (n - site - 1), d**site)
    assert np.all(blocks[:, 1] == 0.0)
    assert np.all(blocks[:, 0] != 0.0)


# (d, N, width, the sites that take the operator-first layout): every site s
# > 0 with d**s <= min(A, 8), A = d**(N - s - width).  N = 7 and 8 reach the
# b == A == 8 boundary, N = 6 the b == A == 4 one, d = 3 at N = 3 and 4 the
# b == A == 3 one; d = 3 at N = 6 has b = 9 < A at site 2, above the cap.
OPERATOR_FIRST_CASES = [
    (2, 7, 1, (1, 2, 3)), (2, 6, 2, (1, 2)), (2, 8, 2, (1, 2, 3)),
    (3, 6, 1, (1,)), (3, 6, 2, (1,)), (3, 3, 1, (1,)), (3, 4, 2, (1,)),
]


def _operator_first_calls(monkeypatch) -> list:
    """Patch a spy over qstate._apply_operator_first; returns its call list."""
    calls = []
    inner = qstate._apply_operator_first

    def spy(x, op):
        calls.append(x.shape)
        return inner(x, op)

    monkeypatch.setattr(qstate, "_apply_operator_first", spy)
    return calls


def _check_layout_against_kron(d, n, width, kind, calls):
    """Every site of N: the kron(I, op, I) oracle to 1e-12, each batch entry
    equal bit for bit to its per-vector call, and for (1, d) rows the exact
    zeros of zero blocks; returns the sites whose call used operator-first."""
    m = d**width
    rng = np.random.default_rng(1000 * d + 10 * n + width)
    vec_batch, op_batch, e = {
        "gates": ((3,), (3,), m),  # per-vector maps, as a circuit stack takes gates
        "broadcast": ((3, 1), (2,), m),  # B branches x a set of k maps
        "rows": ((3, 1), (d,), 1),  # rank-one (1, d) rows
    }[kind]
    batch = np.broadcast_shapes(vec_batch, op_batch)
    hit = []
    for site in range(1, n - width + 1):
        a, b = d ** (n - site - width), d**site
        vecs = _complex_normal(rng, vec_batch + (d**n,))
        vecs.reshape(vec_batch + (a, m, b))[..., a // 2, :, :] = 0.0  # one zero block row
        ops = _complex_normal(rng, op_batch + (e, m))
        kernel = apply_kraus_vector if width == 1 else apply_two_site_vector
        before = len(calls)
        out = kernel(vecs, n, d, site, ops)
        if len(calls) > before:
            hit.append(site)
        assert out.shape == batch + (e * d ** (n - width),)
        vb = np.broadcast_to(vecs, batch + (d**n,))
        ob = np.broadcast_to(ops, batch + (e, m))
        for idx in np.ndindex(*batch):
            full = np.kron(np.kron(np.eye(a), ob[idx]), np.eye(b))
            assert np.abs(out[idx] - full @ vb[idx]).max() < 1e-12
            assert np.array_equal(out[idx], kernel(vb[idx], n, d, site, ob[idx]))
        blocks = out.reshape(batch + (a, e, b))
        assert np.all(blocks[..., a // 2, :, :] == 0.0)
        if e == 1:
            assert np.all(np.delete(blocks, a // 2, axis=-3) != 0.0)
    return hit


def _kinds(cases):
    """Each case with every batch kind; rank-one rows act on one site only."""
    return [c + (k,) for c in cases for k in ("gates", "broadcast", "rows")
            if k != "rows" or c[2] == 1]


@pytest.mark.parametrize("d, n, width, sites, kind", _kinds(OPERATOR_FIRST_CASES))
def test_operator_first_layout_matches_kron(d, n, width, sites, kind, monkeypatch):
    # The layout runs on exactly the listed sites, and the left-multiply one
    # on the others, with the same results to the oracle.
    calls = _operator_first_calls(monkeypatch)
    assert _check_layout_against_kron(d, n, width, kind, calls) == list(sites)


@pytest.mark.parametrize("d, n, width, sites, kind",
                         _kinds([(2, 7, 1, (1, 2, 3)), (3, 6, 2, (1,))]))
def test_operator_first_chunks_match_kron(d, n, width, sites, kind, monkeypatch):
    # A 1 KiB scratch bound splits each call into pieces of A and rows of
    # the first batch axis; the results still match the oracle and the
    # per-vector calls, which split their vectors into the same pieces.
    monkeypatch.setattr(qstate, "_BLOCK_SCRATCH_BYTES", 2**10)
    calls = _operator_first_calls(monkeypatch)
    assert _check_layout_against_kron(d, n, width, kind, calls) == list(sites)


@pytest.mark.parametrize("vec_shape, op_shape, width, site", [
    ((32, 1, 2**10), (2, 2, 2), 1, 1),  # a weak set on 32 branches: rows of 4
    ((128, 2**8), (128, 4, 4), 2, 2),  # a circuit stack's gates: rows of 32
    ((2, 2**15), (2, 2), 1, 1),  # one vector above the bound: pieces of A
])
def test_operator_first_scratch_stays_within_its_bound(vec_shape, op_shape, width, site,
                                                       monkeypatch):
    # One call on a stack larger than the scratch bound peaks at its output
    # plus at most _BLOCK_SCRATCH_BYTES of array data (tracemalloc sees
    # numpy's buffers); 4 KiB more covers the call's Python objects (array
    # headers, shape tuples), about 1.6 KiB here.  The first call on a
    # thread allocates its scratch buffer; later calls reuse it.
    monkeypatch.setattr(qstate, "_SCRATCH", threading.local())
    rng = np.random.default_rng(7)
    vecs, ops = _complex_normal(rng, vec_shape), _complex_normal(rng, op_shape)
    n = int(np.log2(vec_shape[-1]))
    assert vecs.nbytes > qstate._BLOCK_SCRATCH_BYTES
    kernel = apply_kraus_vector if width == 1 else apply_two_site_vector
    peaks = []  # above the traced memory before each call
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = kernel(vecs, n, 2, site, ops)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del out
    finally:
        tracemalloc.stop()
    kept = qstate._SCRATCH.buffer
    out = kernel(vecs, n, 2, site, ops)
    assert qstate._SCRATCH.buffer is kept
    assert peaks[0] <= out.nbytes + qstate._BLOCK_SCRATCH_BYTES + 4096
    assert peaks[1] <= out.nbytes + 4096
    # An einsum over the (..., A, m, b) view as the oracle; a kron would not fit.
    view = vecs.reshape(vec_shape[:-1] + (-1, 2**width, 2**site))
    want = np.einsum("...em,...amb->...aeb", ops, view)
    assert np.abs(out - want.reshape(want.shape[:-3] + (-1,))).max() < 1e-12


def test_subadditivity_of_marginals():
    for trial in range(20):
        s = random_pure(3, 2, seed=500 + trial)
        s01 = von_neumann_entropy(reduced_density(s, [0, 1]))
        s0 = von_neumann_entropy(reduced_density(s, [0]))
        s1 = von_neumann_entropy(reduced_density(s, [1]))
        assert s01 <= s0 + s1 + 1e-10
