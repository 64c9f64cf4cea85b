"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a list of operations.  An operation is one argument list for
``loccwork.cli.cli_main`` plus a check of what that call printed or wrote.
Every expected value below is computed here with numpy from the inputs, or
is a property the method must have; nothing is compared against a stored
copy of the program's output.  This module imports nothing from loccwork.

The inputs derive from the workload seed through ``numpy.random.default_rng``
(see ``_seeds``), so one seed always gives the same files and arguments.
Inputs whose cost would follow the seed are fixed instead: the lattice
search rows (``LATTICE_SEARCH_SEEDS``) and the ``work`` call.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LN2 = math.log(2.0)
# Tail-cap constant 2/(9 pi^3 ln 2) for uniform states, restated from the
# published bound rather than read from the program.
TAIL_C1 = 2.0 / (9.0 * math.pi**3 * LN2)
# Slack on the circuit second-moment cap, as in the acceptance tail test.
CIRCUIT_CAP_SLACK = 1.5
EXACT_TOL = 1e-9
SCALING_HEADER = (
    "ensemble,N,sample,seed,w_global,w_local,eg_value,eg_cert,"
    "w_locc_upper,w_locc_lower,best_protocol,wall_ms"
)
TAIL_HEADER = "alpha,threshold,exceed_count,samples,empirical,bound,wilson_low,wilson_high"


class CheckFailed(Exception):
    """An output disagrees with its independently computed expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One ``cli_main`` call and the check applied to its captured stdout."""

    name: str
    argv: tuple
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# Reference computations (numpy only, little-endian: site 0 is the fastest
# digit of the flat amplitude index).


def row_seed(base_seed: int, num_sites: int, sample: int) -> int:
    """Documented per-row seed: base XOR crc32("{N}:{sample}")."""
    return base_seed ^ zlib.crc32(f"{num_sites}:{sample}".encode())


def haar_amplitudes(num_sites: int, seed: int) -> np.ndarray:
    """The documented Haar sampler: normalized i.i.d. complex Gaussians
    drawn real part first from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    dim = 2**num_sites
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_graph_edges(num_vertices: int, seed: int) -> list:
    """G(n, 1/2) in the documented order: one draw per pair (i, j), i < j."""
    rng = np.random.default_rng(seed)
    return [
        (i, j)
        for i in range(num_vertices)
        for j in range(i + 1, num_vertices)
        if rng.random() < 0.5
    ]


def graph_amplitudes(num_vertices: int, edges) -> np.ndarray:
    """2^(-N/2) (-1)^(edges with both ends 1) over all bitstrings."""
    idx = np.arange(2**num_vertices)
    parity = np.zeros(idx.size, dtype=np.int64)
    for i, j in edges:
        parity += (idx >> i) & (idx >> j) & 1
    return ((-1.0) ** parity / math.sqrt(2.0**num_vertices)).astype(complex)


def lattice_edges(kind: str, num_vertices: int) -> list:
    """Cycle, or the 3-row square torus, with vertex r * cols + c."""
    if kind == "cycle":
        return [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    require(kind == "square_torus", f"no reference lattice for {kind!r}")
    cols = num_vertices // 3
    edges = set()
    for r in range(3):
        for c in range(cols):
            v = r * cols + c
            for w in (r * cols + (c + 1) % cols, ((r + 1) % 3) * cols + c):
                edges.add((min(v, w), max(v, w)))
    return sorted(edges)


def _site_halves(amps: np.ndarray, num_sites: int, site: int):
    """Amplitude blocks with the site's digit 0 and 1, leading axes batched."""
    t = amps.reshape(amps.shape[:-1] + (2 ** (num_sites - site - 1), 2, 2**site))
    return t[..., 0, :], t[..., 1, :]


def _entropy_2x2(r00, r11, r01) -> np.ndarray:
    """Von Neumann entropy (nats) of Hermitian 2x2 matrices given by entries."""
    tr = r00 + r11
    gap = np.sqrt((r00 - r11) ** 2 + 4.0 * np.abs(r01) ** 2)
    lam = np.stack([(tr + gap) / 2.0, (tr - gap) / 2.0])
    safe = np.where(lam > 1e-12, lam, 1.0)
    return -(np.where(lam > 1e-12, lam * np.log(safe), 0.0)).sum(axis=0)


def site_entropies(amps: np.ndarray, num_sites: int) -> np.ndarray:
    """S(rho_n) for every site of a normalized state vector."""
    out = []
    for site in range(num_sites):
        a0, a1 = _site_halves(amps, num_sites, site)
        r00 = (np.abs(a0) ** 2).sum(axis=(-2, -1))
        r11 = (np.abs(a1) ** 2).sum(axis=(-2, -1))
        r01 = (a0 * a1.conj()).sum(axis=(-2, -1))
        out.append(_entropy_2x2(r00, r11, r01))
    return np.array(out)


def w_local_ref(amps: np.ndarray, num_sites: int) -> float:
    return float(num_sites * LN2 - site_entropies(amps, num_sites).sum())


def shannon(probs: np.ndarray) -> float:
    p = probs[probs > 1e-300]
    return float(-(p * np.log(p)).sum())


def computational_work_ref(amps: np.ndarray, num_sites: int) -> float:
    """All-Z round: leaves are basis states, so W = N ln 2 - H(|psi_z|^2)."""
    return num_sites * LN2 - shannon(np.abs(amps) ** 2)


def single_cut_bound(amps: np.ndarray, num_sites: int) -> float:
    """max over sites n of -ln sigma_max^2 across the cut {n} | rest.

    Any product overlap is at most sigma_max^2 across any cut, so this
    lower-bounds the product-overlap exponent; it is exact at N = 2."""
    best = 0.0
    for site in range(num_sites):
        a0, a1 = _site_halves(amps, num_sites, site)
        mat = np.stack([a0.reshape(-1), a1.reshape(-1)])
        smax = float(np.linalg.svd(mat, compute_uv=False)[0])
        best = max(best, -math.log(smax**2))
    return best


# ---------------------------------------------------------------------------
# Output parsers.


def _opt_float(text: str):
    return None if text == "" else float(text)


def read_scaling_csv(path: Path) -> list:
    lines = path.read_text().splitlines()
    require(bool(lines) and lines[0] == SCALING_HEADER, f"{path.name}: wrong CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        require(len(f) == 12, f"{path.name}: malformed row {line!r}")
        rows.append(
            dict(
                ensemble=f[0],
                n=int(f[1]),
                sample=int(f[2]),
                seed=int(f[3]),
                w_global=float(f[4]),
                w_local=_opt_float(f[5]),
                eg_value=_opt_float(f[6]),
                eg_cert=f[7],
                w_locc_upper=_opt_float(f[8]),
                w_locc_lower=_opt_float(f[9]),
                best_protocol=f[10],
            )
        )
    return rows


def read_tail_csv(path: Path) -> list:
    lines = path.read_text().splitlines()
    require(bool(lines) and lines[0] == TAIL_HEADER, f"{path.name}: wrong CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        require(len(f) == 8, f"{path.name}: malformed row {line!r}")
        rows.append(
            dict(alpha=float(f[0]), threshold=float(f[1]), count=int(f[2]),
                 samples=int(f[3]), bound=float(f[5]))
        )
    return rows


def read_key_values(stdout: str) -> dict:
    """``key value`` lines, as printed by the work and protocol commands."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Checks shared by several operations.


def check_eg(where: str, n: int, amps, eg: float, cert: str, upper: float, lower: float) -> None:
    cut = single_cut_bound(amps, n)
    require(eg >= cut - EXACT_TOL, f"{where}: eg_value {eg!r} below the cut bound {cut!r}")
    if n == 2:
        require(close(eg, cut), f"{where}: two-site eg_value {eg!r} != exact {cut!r}")
    require(close(upper, n * LN2 - eg), f"{where}: w_locc_upper != N ln 2 - eg_value")
    if cert == "bruteforce_certified":
        require(lower <= upper + 1e-6, f"{where}: certified ceiling {upper!r} < lower {lower!r}")


def check_graph_w_local(where: str, n: int, edges, w_local: float) -> None:
    """On a graph state every site with a neighbour is maximally mixed and an
    isolated site is pure, so w_local = (isolated sites) ln 2."""
    isolated = n - len({v for e in edges for v in e})
    require(close(w_local, isolated * LN2), f"{where}: w_local {w_local!r} != {isolated} ln 2")


def check_caro_wei(where: str, n: int, edges, lower: float) -> None:
    """The greedy independent set reaches the Caro-Wei size sum 1/(deg + 1),
    and each of its sites certifies ln 2 on a graph state."""
    degree = np.bincount(np.array(edges, dtype=int).reshape(-1), minlength=n)
    caro_wei = float((1.0 / (degree + 1)).sum())
    require(lower >= caro_wei * LN2 - EXACT_TOL,
            f"{where}: independent-set work below the Caro-Wei bound")


def check_common_row(where: str, row: dict, kind: str, base_seed: int) -> None:
    n = row["n"]
    require(row["ensemble"] == kind, f"{where}: ensemble {row['ensemble']!r}")
    require(row["seed"] == row_seed(base_seed, n, row["sample"]), f"{where}: row seed")
    require(close(row["w_global"], n * LN2, 1e-12), f"{where}: w_global != N ln 2")
    lower, w_l = row["w_locc_lower"], row["w_local"]
    require(lower >= w_l - EXACT_TOL, f"{where}: lower bound below w_local")
    require(lower <= n * LN2 + EXACT_TOL, f"{where}: lower bound above N ln 2")


def check_haar_figures(where: str, n: int, amps, w_local: float, lower: float,
                       with_computational: bool) -> None:
    ref = w_local_ref(amps, n)
    require(close(w_local, ref), f"{where}: w_local {w_local!r} != reference {ref!r}")
    if with_computational:
        comp = computational_work_ref(amps, n)
        require(lower >= comp - EXACT_TOL, f"{where}: lower {lower!r} < computational {comp!r}")


# ---------------------------------------------------------------------------
# Operations: one cli_main call and its check each.


def scaling_op(name: str, work_dir: Path, config: dict, row_check) -> Op:
    """``experiment scaling`` on a config written here; checks every CSV row."""
    csv_path = work_dir / f"{name}.csv"
    cfg_path = work_dir / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(config, output=str(csv_path))))
    kind = config["ensemble"]["kind"]
    expected = [(n, i) for n in config["n_values"] for i in range(config["samples"])]

    def check(stdout: str) -> None:
        rows = read_scaling_csv(csv_path)
        require(stdout.startswith(f"wrote {len(expected)} rows"), f"{name}: summary line")
        require([(r["n"], r["sample"]) for r in rows] == expected, f"{name}: row order")
        for r in rows:
            where = f"{name} N={r['n']} sample={r['sample']}"
            check_common_row(where, r, kind, config["seed"])
            row_check(where, r)

    return Op(name, ("experiment", "scaling", "--config", str(cfg_path)), check)


def protocol_op(name: str, work_dir: Path, text: str, state_argv: tuple, check) -> Op:
    path = work_dir / f"{name}.proto"
    path.write_text(text)
    argv = ("protocol", "--file", str(path)) + state_argv
    return Op(name, argv, lambda stdout: check(read_key_values(stdout)))


def _seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**31, size=count)]


# ---------------------------------------------------------------------------
# Workloads.  Each returns its operations after writing their input files.


def protocol_trees(seed: int, work_dir: Path) -> list:
    """Branch-tree expansion and per-leaf scoring, no product-overlap search."""
    haar_base, subset_base, graph_base, weak_seed, support_seed = _seeds(seed, 5)
    ops = []

    def haar_row(where, r):
        amps = haar_amplitudes(r["n"], r["seed"])
        check_haar_figures(where, r["n"], amps, r["w_local"], r["w_locc_lower"], False)

    ops.append(scaling_op("trees_haar", work_dir, {
        "ensemble": {"kind": "haar"}, "n_values": [8, 10], "samples": 1, "seed": haar_base,
        "estimators": {"protocols": ["refined-null"]}}, haar_row))

    def subset_row(where, r):
        n = r["n"]
        floor = n * LN2 - math.log(2 ** (n // 2))
        lower = r["w_locc_lower"]
        require(lower >= floor - EXACT_TOL, f"{where}: lower {lower!r} < N ln 2 - ln K")
        if r["best_protocol"] == "computational":
            require(close(lower, floor), f"{where}: computational work {lower!r} != N ln 2 - ln K")

    ops.append(scaling_op("trees_subset", work_dir, {
        "ensemble": {"kind": "subset", "k": "2^(N/2)"}, "n_values": [10, 12], "samples": 1,
        "seed": subset_base, "estimators": {"protocols": ["computational"]}}, subset_row))

    def cycle_row(where, r):
        n = r["n"]
        require(close(r["w_local"], 0.0), f"{where}: cycle w_local {r['w_local']!r} != 0")
        require(r["w_locc_lower"] >= n * LN2 / 3 - EXACT_TOL,
                f"{where}: independent-set work below N ln 2 / 3")

    # Cycle states do not depend on the seed; the base seed only labels rows.
    ops.append(scaling_op("trees_cycle", work_dir, {
        "ensemble": {"kind": "cycle"}, "n_values": [8], "samples": 1, "seed": subset_base,
        "estimators": {"protocols": ["computational", "independent-set"]}}, cycle_row))
    ops.append(scaling_op("trees_cycle_is", work_dir, {
        "ensemble": {"kind": "cycle"}, "n_values": [9, 11, 12], "samples": 1,
        "seed": subset_base, "estimators": {"protocols": ["independent-set"]}}, cycle_row))

    def random_graph_row(where, r):
        n = r["n"]
        edges = random_graph_edges(n, r["seed"])
        check_graph_w_local(where, n, edges, r["w_local"])
        check_caro_wei(where, n, edges, r["w_locc_lower"])

    ops.append(scaling_op("trees_random_graph", work_dir, {
        "ensemble": {"kind": "random_graph"}, "n_values": [8, 9, 10], "samples": 1,
        "seed": graph_base, "estimators": {"protocols": ["independent-set"]}}, random_graph_row))

    ops.append(_weak_measurement_op(work_dir, 10, weak_seed))
    ops.append(_subset_z_op(work_dir, 16, 32, support_seed))
    return ops


def _weak_measurement_op(work_dir: Path, n: int, state_seed: int) -> Op:
    """A two-outcome non-projective Kraus set on every site of a Haar state."""
    hi, lo = math.sqrt(0.8), math.sqrt(0.2)
    text = (
        f"sites {n}\nmeasurement WEAK\n"
        f"op w0 {hi!r} 0 0 0 0 0 {lo!r} 0\n"
        f"op w1 {lo!r} 0 0 0 0 0 {hi!r} 0\n"
        "end\n" + "round" + " WEAK" * n + "\n"
    )
    # kraus[y, z]: diagonal entry of Kraus operator y on basis state z.
    kraus = np.array([[hi, lo], [lo, hi]])

    @functools.cache
    def expected():
        """(outcome entropy, local term), 64 outcome strings y at a time."""
        amps = haar_amplitudes(n, state_seed)
        z = np.arange(2**n)[None, :]
        probs, residual = [], 0.0
        for start in range(0, 2**n, 64):
            y = np.arange(start, start + 64)[:, None]
            weights = np.ones((64, 2**n))
            for site in range(n):
                weights *= kraus[(y >> site) & 1, (z >> site) & 1]
            branches = weights * amps[None, :]
            p = (np.abs(branches) ** 2).sum(axis=1)
            leaves = branches / np.sqrt(p)[:, None]
            residual += float((p * site_entropies(leaves, n).sum(axis=0)).sum())
            probs.append(p)
        return shannon(np.concatenate(probs)), n * LN2 - residual

    def check(out: dict) -> None:
        entropy, local_term = expected()
        require(int(out["leaves"]) == 2**n, "weak: leaf count != 2^N")
        require(float(out["dropped_mass"]) == 0.0, "weak: dropped mass")
        require(close(float(out["outcome_entropy"]), entropy),
                f"weak: outcome_entropy {out['outcome_entropy']} != {entropy!r}")
        require(close(float(out["local_term"]), local_term),
                f"weak: local_term {out['local_term']} != {local_term!r}")
        require(close(float(out["work"]), local_term - entropy), "weak: work")

    return protocol_op("trees_weak", work_dir, text,
                       ("--state", "haar", "--n", str(n), "--seed", str(state_seed)), check)


def _subset_z_op(work_dir: Path, n: int, k: int, support_seed: int) -> Op:
    """All-Z round on a K-string subset state: exactly N ln 2 - ln K.

    Its K leaves of 2^N amplitudes each make the largest tree of the
    workload, so this call sets the peak memory."""
    rng = np.random.default_rng(support_seed)
    picks = rng.choice(2**n, size=k, replace=False)
    support = work_dir / "subset.support"
    support.write_text(
        "\n".join("".join(str((int(x) >> i) & 1) for i in range(n)) for x in picks) + "\n"
    )

    def check(out: dict) -> None:
        require(int(out["leaves"]) == k, "subset Z: leaf count != K")
        require(close(float(out["outcome_entropy"]), math.log(k)), "subset Z: entropy != ln K")
        require(close(float(out["work"]), n * LN2 - math.log(k)), "subset Z: work != N ln 2 - ln K")

    text = f"sites {n}\nround" + " Z" * n + "\n"
    return protocol_op("trees_subset_z", work_dir, text,
                       ("--state", "subset", "--support-file", str(support)), check)


# Base seeds of the lattice search rows, fixed for every workload seed.  The
# alternating search's sweep count depends on its random restarts and has a
# long tail (4 to 97 sweeps per restart on the N = 12 torus), so seeding the
# restarts from the workload seed would make the pass time depend on it.
LATTICE_SEARCH_SEEDS = {"cycle": 11, "square_torus": 12}


def overlap_search(seed: int, work_dir: Path) -> list:
    """Product-overlap search dominates; protocol trees stay small."""
    (haar_base,) = _seeds(seed, 1)
    ops = []

    def lattice_row(where, r):
        n = r["n"]
        edges = lattice_edges(r["ensemble"], n)
        check_graph_w_local(where, n, edges, r["w_local"])
        require(close(r["w_locc_lower"], r["w_local"]), f"{where}: null menu lower != w_local")
        check_eg(where, n, graph_amplitudes(n, edges), r["eg_value"], r["eg_cert"],
                 r["w_locc_upper"], r["w_locc_lower"])

    # Lattice graphs and their base seeds are fixed; each row seed drives the
    # 32 random restarts of its search.
    alternating = {"eg": {"method": "alternating", "restarts": 32}, "protocols": []}
    ops.append(scaling_op("search_cycle", work_dir, {
        "ensemble": {"kind": "cycle"}, "n_values": [8, 10, 12], "samples": 2,
        "seed": LATTICE_SEARCH_SEEDS["cycle"], "estimators": alternating}, lattice_row))
    ops.append(scaling_op("search_torus", work_dir, {
        "ensemble": {"kind": "square_torus", "rows": 3}, "n_values": [9, 12], "samples": 2,
        "seed": LATTICE_SEARCH_SEEDS["square_torus"], "estimators": alternating}, lattice_row))

    def haar_row(where, r):
        n = r["n"]
        amps = haar_amplitudes(n, r["seed"])
        require(r["eg_cert"] == "bruteforce_certified", f"{where}: cert {r['eg_cert']!r}")
        check_haar_figures(where, n, amps, r["w_local"], r["w_locc_lower"], True)
        check_eg(where, n, amps, r["eg_value"], r["eg_cert"], r["w_locc_upper"],
                 r["w_locc_lower"])

    ops.append(scaling_op("search_haar_small", work_dir, {
        "ensemble": {"kind": "haar"}, "n_values": [2, 3, 4], "samples": 3, "seed": haar_base,
        "estimators": {"eg": {"method": "bruteforce"},
                       "protocols": ["computational", "refined-null"]}}, haar_row))

    ops.append(_lattice_work_op(work_dir))
    return ops


def _lattice_work_op(work_dir: Path) -> Op:
    """``work`` on the six-site cycle graph state, search seed 0.

    A fixed state, so its search cost does not depend on the workload seed.
    With a graph the menu adds the independent-set protocol."""
    n = 6
    edges = lattice_edges("cycle", n)
    graph = work_dir / "cycle6.graph"
    graph.write_text("\n".join([str(n)] + [f"{i} {j}" for i, j in edges]) + "\n")

    def check(stdout: str) -> None:
        out = read_key_values(stdout)
        require(int(out["sites"]) == n, "work: sites")
        require(close(float(out["w_global"]), n * LN2, 1e-12), "work: w_global != N ln 2")
        w_l, lower = float(out["w_local"]), float(out["w_locc_lower"])
        check_graph_w_local("work", n, edges, w_l)
        check_caro_wei("work", n, edges, lower)
        require(lower <= n * LN2 + EXACT_TOL, "work: lower bound above N ln 2")
        check_eg("work", n, graph_amplitudes(n, edges), float(out["eg_value"]),
                 out["eg_cert"], float(out["w_locc_upper"]), lower)

    return Op("search_work", ("work", "--state", "graph", "--graph-file", str(graph)), check)


def overlap_tails(seed: int, work_dir: Path) -> list:
    """Overlap-tail sampling; neither protocol trees nor the eg search run."""
    haar_seed, circuit_seed = _seeds(seed, 2)
    ops = []

    n, samples = 10, 20_000
    haar_alphas = (0.05, 0.25, 0.5, 1.0)
    haar_csv = work_dir / "tail_haar.csv"

    def haar_check(stdout: str) -> None:
        dim = 2**n
        rows = read_tail_csv(haar_csv)
        require([r["alpha"] for r in rows] == list(haar_alphas), "haar tail: alphas")
        for r in rows:
            x = 4.0 * r["alpha"] / dim
            require(close(r["threshold"], x, 1e-15), "haar tail: threshold != 4 alpha / D")
            # |<0|psi>|^2 ~ Beta(1, D-1): exact tail (1 - x)^(D-1).
            p = (1.0 - x) ** (dim - 1)
            mean, sd = samples * p, math.sqrt(samples * p * (1.0 - p))
            require(r["samples"] == samples, "haar tail: sample count")
            require(abs(r["count"] - mean) <= 5.0 * sd,
                    f"haar tail: alpha={r['alpha']} count {r['count']} vs {mean:.1f} +- {sd:.1f}")
            cap = 2.0 * math.exp(-TAIL_C1 * r["alpha"])
            require(close(r["bound"], cap, 1e-12), "haar tail: cap value")
            require(r["count"] / samples <= cap, "haar tail: frequency above the analytic cap")

    ops.append(Op("tails_haar", (
        "experiment", "tail", "--ensemble", "haar", "--n", str(n), "--samples", str(samples),
        "--alphas", ",".join(map(str, haar_alphas)), "--seed", str(haar_seed),
        "--output", str(haar_csv)), haar_check))

    cn, depth, order, csamples = 8, 10, 2, 1000
    circuit_alphas = (2.0, 4.0, 8.0, 16.0)
    circuit_csv = work_dir / "tail_circuit.csv"

    def circuit_check(stdout: str) -> None:
        rows = read_tail_csv(circuit_csv)
        require([r["alpha"] for r in rows] == list(circuit_alphas), "circuit tail: alphas")
        counts = [r["count"] for r in rows]
        require(all(a >= b for a, b in zip(counts, counts[1:])),
                f"circuit tail: counts {counts} increase with alpha")
        for r in rows:
            require(close(r["threshold"], r["alpha"] / 2**cn, 1e-15), "circuit tail: threshold")
            cap = (order / r["alpha"]) ** order
            require(r["count"] / csamples <= cap * CIRCUIT_CAP_SLACK,
                    f"circuit tail: alpha={r['alpha']} frequency above the second-moment cap")

    ops.append(Op("tails_circuit", (
        "experiment", "tail", "--ensemble", "circuit", "--n", str(cn), "--depth", str(depth),
        "--design-order", str(order), "--samples", str(csamples),
        "--alphas", ",".join(map(str, circuit_alphas)), "--seed", str(circuit_seed),
        "--output", str(circuit_csv)), circuit_check))
    return ops


WORKLOADS = {
    "protocol-trees": protocol_trees,
    "overlap-search": overlap_search,
    "overlap-tails": overlap_tails,
}
