"""Experiment harness: batch scaling runs, overlap tail checks, report IO.

Reproducibility contract: every row draws its state from a seed derived as

    row_seed = base_seed XOR crc32("{N}:{sample_index}")

so the same config file always produces the same numbers (wall_ms aside),
regardless of execution order.  Rows are emitted in (N, sample) order.

build_state turns a family name and its parameters into a state, and
work_report evaluates one state; the CLI and the scaling harness both go
through these two functions.
"""

from __future__ import annotations

import json
import math
import re
import time
import zlib
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np
from scipy import stats

from . import ensembles, graphs, locc, workbounds
from .qstate import PureState

CSV_HEADER = (
    "ensemble,N,sample,seed,w_global,w_local,eg_value,eg_cert,"
    "w_locc_upper,w_locc_lower,best_protocol,wall_ms"
)
TAIL_CSV_HEADER = "alpha,threshold,exceed_count,samples,empirical,bound,wilson_low,wilson_high"

# Exponential tail rate for uniformly random states: 2/(9 pi^3 ln 2).
TAIL_C1 = 2.0 / (9.0 * math.pi**3 * math.log(2.0))

# Two-sided 99% normal quantile, used for Wilson intervals.
Z_99 = 2.5758293035489004

GRAPH_KINDS = ("cycle", "square_torus", "triangular_torus", "hexagonal", "random_graph")
ENSEMBLE_KINDS = ("haar", "circuit", "subset") + GRAPH_KINDS
PROTOCOL_NAMES = ("null", "computational", "independent-set", "refined-null")
EG_METHODS = ("alternating", "bruteforce")

_SUBSET_K_RULE = re.compile(r"^2\^\(N/(\d+)\)$")


def derive_row_seed(base_seed: int, num_sites: int, sample_index: int) -> int:
    """base_seed XOR crc32("{N}:{sample}"); stable across platforms."""
    if base_seed < 0:
        raise ValueError("base seed must be nonnegative")
    return base_seed ^ zlib.crc32(f"{num_sites}:{sample_index}".encode())


def wilson_interval(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("bad binomial counts")
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def fit_slope(x, y) -> tuple[float, float, float]:
    """Least-squares slope with its standard error: (slope, stderr, intercept)."""
    res = stats.linregress(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return float(res.slope), float(res.stderr), float(res.intercept)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scaling-run description; see load_config for the file schema."""

    ensemble_kind: str
    n_values: tuple
    samples: int
    seed: int
    output: str | None = None
    local_dim: int = 2
    depth: int | None = None
    rows: int | None = None
    subset_k: int | str | None = None
    w_local: bool = True
    eg_method: str | None = None
    eg_restarts: int = 32
    eg_grid: int = 24
    protocols: tuple = ("null",)

    def __post_init__(self) -> None:
        if self.ensemble_kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.ensemble_kind!r}")
        if not self.n_values or any(int(n) < 1 for n in self.n_values):
            raise ValueError("n_values must be positive")
        if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly ascending")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.ensemble_kind == "circuit" and (self.depth is None or self.depth < 0):
            raise ValueError("circuit ensemble needs a nonnegative depth")
        if self.ensemble_kind in ("square_torus", "triangular_torus", "hexagonal"):
            if self.rows is None or self.rows < 2:
                raise ValueError(f"{self.ensemble_kind} ensemble needs rows >= 2")
        if self.ensemble_kind == "subset":
            if self.subset_k is None:
                raise ValueError("subset ensemble needs k")
            if isinstance(self.subset_k, str) and not _SUBSET_K_RULE.match(self.subset_k):
                raise ValueError(f'bad k rule {self.subset_k!r}; use an int or "2^(N/D)"')
        if self.eg_method is not None and self.eg_method not in EG_METHODS:
            raise ValueError(f"unknown eg method {self.eg_method!r}")
        bad = set(self.protocols) - set(PROTOCOL_NAMES)
        if bad:
            raise ValueError(f"unknown protocols {sorted(bad)}")
        if "independent-set" in self.protocols and self.ensemble_kind not in GRAPH_KINDS:
            raise ValueError("independent-set protocol requires a graph ensemble")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        protos = tuple(dict.fromkeys(("null",) + tuple(self.protocols)))
        object.__setattr__(self, "protocols", protos)

    def resolve_k(self, num_sites: int) -> int | None:
        if self.subset_k is None or isinstance(self.subset_k, int):
            return self.subset_k
        divisor = int(_SUBSET_K_RULE.match(self.subset_k).group(1))
        return 2 ** (num_sites // divisor)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON config file.

    Schema: {"ensemble": {"kind": ..., "local_dim"/"depth"/"rows"/"k": ...},
    "n_values": [...], "samples": int, "seed": int, "output": path?,
    "estimators": {"w_local": bool, "eg": {"method", "restarts", "grid"}?,
    "protocols": [names]}}.  The null protocol is always added to the menu,
    which keeps every row's lower bound at or above its local figure.
    """
    raw = json.loads(Path(path).read_text())
    ens = raw.get("ensemble")
    if not isinstance(ens, dict) or "kind" not in ens:
        raise ValueError(f"{path}: config needs an ensemble object with a kind")
    est = raw.get("estimators", {})
    eg = est.get("eg")
    return ExperimentConfig(
        ensemble_kind=ens["kind"],
        n_values=tuple(raw.get("n_values", ())),
        samples=int(raw.get("samples", 0)),
        seed=int(raw.get("seed", -1)),
        output=raw.get("output"),
        local_dim=int(ens.get("local_dim", 2)),
        depth=ens.get("depth"),
        rows=ens.get("rows"),
        subset_k=ens.get("k"),
        w_local=bool(est.get("w_local", True)),
        eg_method=None if eg is None else eg.get("method", "alternating"),
        eg_restarts=32 if eg is None else int(eg.get("restarts", 32)),
        eg_grid=24 if eg is None else int(eg.get("grid", 24)),
        protocols=tuple(est.get("protocols", ())),
    )


def _check_figures(row) -> None:
    """The checks every ResultRow and WorkReport runs: float fields are finite
    and w_local - 1e-9 <= w_locc_lower <= w_global + 1e-8 (None skips a side)."""
    for f in fields(row):
        v = getattr(row, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{f.name} is not finite: {v}")
    if row.w_local is not None and row.w_locc_lower is not None:
        if row.w_locc_lower < row.w_local - 1e-9:
            raise ValueError("lower bound fell below the local figure")
    if row.w_locc_lower is not None and row.w_locc_lower > row.w_global + 1e-8:
        raise ValueError("lower bound exceeds the global budget")


@dataclass(frozen=True)
class ResultRow:
    """One (ensemble, N, sample) evaluation; None marks a disabled estimator."""

    ensemble: str
    n: int
    sample: int
    seed: int
    w_global: float
    w_local: float | None
    eg_value: float | None
    eg_cert: str
    w_locc_upper: float | None
    w_locc_lower: float | None
    best_protocol: str
    wall_ms: float

    def __post_init__(self) -> None:
        _check_figures(self)


def build_state(
    kind: str,
    num_sites: int,
    *,
    seed: int | None = None,
    local_dim: int = 2,
    depth: int | None = None,
    rows: int | None = None,
    k: int | None = None,
):
    """Returns (state, graph_or_None) for one generated state family.

    Named families: ghz, zero (any local_dim), w, plus (qubits only).
    Sampled families, which need a seed: haar, circuit (depth brickwork
    layers), subset (k random bitstrings) and random_graph.  Lattice graph
    states: cycle, and square_torus, triangular_torus and hexagonal with
    `rows` rows.  Graph and subset states are qubit states and ignore
    local_dim.  A bad spec raises ValueError.
    """
    if seed is None and kind in ("haar", "circuit", "subset", "random_graph"):
        raise ValueError(f"{kind} states need a seed")
    if local_dim != 2 and kind in ("w", "plus"):
        raise ValueError(f"the {kind} family is a qubit family")
    if kind == "ghz":
        return ensembles.ghz_state(num_sites, local_dim), None
    if kind == "zero":
        return ensembles.zero_state(num_sites, local_dim), None
    if kind == "w":
        return ensembles.w_state(num_sites), None
    if kind == "plus":
        return ensembles.plus_state(num_sites), None
    if kind == "haar":
        return ensembles.sample_haar(num_sites, local_dim, seed), None
    if kind == "circuit":
        spec = ensembles.CircuitSpec(num_sites, depth, seed, local_dim)
        return ensembles.sample_circuit(spec), None
    if kind == "subset":
        return ensembles.subset_state(ensembles.sample_subset(num_sites, k, seed)), None
    if kind == "random_graph":
        g = graphs.gen_random_graph(num_sites, seed)
    elif kind in GRAPH_KINDS:
        g = graphs.gen_lattice(kind, _lattice_dims(kind, num_sites, rows))
    else:
        raise ValueError(f"unknown state family {kind!r}")
    return ensembles.graph_state(g), g


def _lattice_dims(kind: str, num_sites: int, rows: int | None) -> tuple:
    if kind == "cycle":
        return (num_sites,)
    if num_sites % rows:
        raise ValueError(f"N={num_sites} not divisible by rows={rows}")
    return (rows, num_sites // rows)


def check_state_size(
    kind: str, num_sites: int, *, rows: int | None = None, k: int | None = None
) -> None:
    """Raises ValueError where build_state would reject this size, without
    building the state: lattice shapes (only the small graph is built) and
    a subset k outside 1..2^N."""
    if kind == "subset" and k is not None and not 1 <= k <= 2**num_sites:
        raise ValueError(f"k={k} out of range for {num_sites} sites")
    if kind in GRAPH_KINDS and kind != "random_graph":
        graphs.gen_lattice(kind, _lattice_dims(kind, num_sites, rows))


def _build_menu(names, state: PureState, graph) -> list:
    menu = []
    for name in names:
        if name == "null":
            menu.append(locc.null_protocol(state.num_sites, state.local_dim))
        elif name == "computational":
            menu.append(locc.subset_protocol(state.num_sites, state.local_dim))
        elif name == "independent-set":
            menu.append(locc.independent_set_protocol(graph))
        elif name == "refined-null":
            menu.append(
                locc.refine_rank_one(locc.null_protocol(state.num_sites, state.local_dim), state)
            )
        else:
            raise ValueError(f"unknown protocol {name!r}")
    return menu


def run_scaling(cfg: ExperimentConfig) -> list:
    """Evaluate all (N, sample) rows in order; stream them to cfg.output as CSV."""
    rows = []
    sink = open(cfg.output, "w") if cfg.output else None
    try:
        if sink:
            sink.write(CSV_HEADER + "\n")
        for n in cfg.n_values:
            for sample in range(cfg.samples):
                seed = derive_row_seed(cfg.seed, n, sample)
                t0 = time.perf_counter()
                state, graph = build_state(
                    cfg.ensemble_kind,
                    n,
                    seed=seed,
                    local_dim=cfg.local_dim,
                    depth=cfg.depth,
                    rows=cfg.rows,
                    k=cfg.resolve_k(n),
                )
                report = work_report(
                    state,
                    graph,
                    eg_method=cfg.eg_method,
                    restarts=cfg.eg_restarts,
                    grid=cfg.eg_grid,
                    rng_seed=seed,
                    protocols=cfg.protocols,
                    w_local=cfg.w_local,
                )
                row = ResultRow(
                    ensemble=cfg.ensemble_kind,
                    n=n,
                    sample=sample,
                    seed=seed,
                    wall_ms=(time.perf_counter() - t0) * 1000.0,
                    **asdict(report),
                )
                rows.append(row)
                if sink:
                    sink.write(row_to_csv(row) + "\n")
                    sink.flush()
    finally:
        if sink:
            sink.close()
    return rows


@dataclass(frozen=True)
class TailRow:
    """Empirical overlap-tail frequency at one alpha, with its analytic cap."""

    alpha: float
    threshold: float
    exceed_count: int
    samples: int
    empirical: float
    bound: float
    wilson_low: float
    wilson_high: float


def run_tail(
    ensemble_kind: str,
    num_sites: int,
    samples: int,
    alphas,
    seed: int,
    depth: int | None = None,
    design_order: int | None = None,
) -> list:
    """Tail table of |<0...0|psi>|^2 against the analytic cap.

    "haar" rows test Prob[overlap >= 4*alpha/D] against 2*exp(-C1*alpha);
    "circuit" rows (depth required) test Prob[overlap >= alpha/D] against
    (t/alpha)^t with t = design_order.  At least 1000 samples required.
    """
    if samples < 1000:
        raise ValueError("tail estimates need at least 1000 samples")
    dim = 2**num_sites
    if ensemble_kind == "haar":
        # Blocks of 20 000 rows, real parts drawn before imaginary parts, fix
        # the RNG stream; chunks of at most 2^21 numbers keep memory flat in D.
        overlaps = np.empty(samples)
        rng = np.random.default_rng(seed)
        chunk = max(1, 2**21 // dim)
        for start in range(0, samples, 20_000):
            m = min(20_000, samples - start)
            first = np.zeros(m)
            total = np.zeros(m)
            for _part in ("real", "imag"):
                for lo in range(0, m, chunk):
                    x = rng.standard_normal((min(chunk, m - lo), dim))
                    first[lo : lo + len(x)] += x[:, 0] ** 2
                    total[lo : lo + len(x)] += (x**2).sum(axis=1)
            overlaps[start : start + m] = first / total
    elif ensemble_kind == "circuit":
        if depth is None:
            raise ValueError("circuit tail needs a depth")
        if design_order is None or design_order < 1:
            raise ValueError("circuit tail needs design_order >= 1")
        overlaps = np.empty(samples)
        for i in range(samples):
            spec = ensembles.CircuitSpec(num_sites, depth, seed + i)
            overlaps[i] = abs(ensembles.sample_circuit(spec).amplitudes[0]) ** 2
    else:
        raise ValueError(f"unknown tail ensemble {ensemble_kind!r}")

    out = []
    for alpha in alphas:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if ensemble_kind == "haar":
            threshold = 4.0 * alpha / dim
            bound = 2.0 * math.exp(-TAIL_C1 * alpha)
        else:
            threshold = alpha / dim
            bound = (design_order / alpha) ** design_order
        count = int((overlaps >= threshold).sum())
        lo, hi = wilson_interval(count, samples)
        out.append(
            TailRow(
                alpha=float(alpha),
                threshold=threshold,
                exceed_count=count,
                samples=samples,
                empirical=count / samples,
                bound=bound,
                wilson_low=lo,
                wilson_high=hi,
            )
        )
    return out


@dataclass(frozen=True)
class WorkReport:
    """All figures for a single state, in nats; None marks a disabled estimator."""

    w_global: float
    w_local: float | None
    eg_value: float | None
    eg_cert: str
    w_locc_upper: float | None
    w_locc_lower: float
    best_protocol: str

    def __post_init__(self) -> None:
        _check_figures(self)


def eg_estimate(
    state: PureState, method: str, *, restarts: int, grid: int, rng_seed: int
) -> workbounds.EgEstimate:
    """Exponent estimate by the "alternating" or the "bruteforce" search."""
    if method == "alternating":
        return workbounds.eg_alternating(state, restarts=restarts, rng_seed=rng_seed)
    if method == "bruteforce":
        return workbounds.eg_bruteforce(state, grid_points_per_axis=grid)
    raise ValueError(f"unknown eg method {method!r}")


def work_report(
    state: PureState,
    graph=None,
    *,
    eg_method: str | None = "alternating",
    restarts: int = 32,
    grid: int = 24,
    rng_seed: int = 0,
    protocols=None,
    w_local: bool = True,
) -> WorkReport:
    """Single-state bundle: both functionals, the exponent estimate with its
    ceiling, and the best protocol lower bound over a menu.

    `protocols` names the menu in order; ties go to the earliest.  None is
    the standard menu: null, computational, independent-set (only with a
    graph) and refined-null.  eg_method None skips the estimate and
    w_local False skips the local figure; both leave None.
    """
    if protocols is None:
        protocols = [p for p in PROTOCOL_NAMES if graph is not None or p != "independent-set"]
    w_g = workbounds.w_global(state)
    w_l = workbounds.w_local(state) if w_local else None
    eg_value, eg_cert, upper = None, "", None
    if eg_method is not None:
        est = eg_estimate(state, eg_method, restarts=restarts, grid=grid, rng_seed=rng_seed)
        upper, eg_cert = workbounds.w_locc_upper(state, est)
        eg_value = est.value
    menu = _build_menu(protocols, state, graph)
    lower, best_name = locc.best_lower_bound(state, menu)
    return WorkReport(
        w_global=w_g,
        w_local=w_l,
        eg_value=eg_value,
        eg_cert=eg_cert,
        w_locc_upper=upper,
        w_locc_lower=lower,
        best_protocol=best_name,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def row_to_csv(row) -> str:
    """A ResultRow or a TailRow as one CSV line.  Both declare their fields
    in the order of their header's columns."""
    return ",".join(_fmt(v) for v in astuple(row))


def emit_report(rows, path: str | Path, fmt: str = "csv") -> None:
    """Write rows as CSV (fixed header) or JSON; floats round-trip exactly."""
    path = Path(path)
    if fmt == "csv":
        lines = [CSV_HEADER] + [row_to_csv(r) for r in rows]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        path.write_text(json.dumps([asdict(r) for r in rows], indent=1) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _parse_opt_float(text: str):
    return None if text == "" else float(text)


def read_report(path: str | Path, fmt: str | None = None) -> list:
    """Read emit_report output back into ResultRow objects."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix == ".json" else "csv"
    if fmt == "json":
        return [ResultRow(**d) for d in json.loads(path.read_text())]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or wrong CSV header")
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"{path}: bad row {ln!r}")
        rows.append(
            ResultRow(
                ensemble=parts[0],
                n=int(parts[1]),
                sample=int(parts[2]),
                seed=int(parts[3]),
                w_global=float(parts[4]),
                w_local=_parse_opt_float(parts[5]),
                eg_value=_parse_opt_float(parts[6]),
                eg_cert=parts[7],
                w_locc_upper=_parse_opt_float(parts[8]),
                w_locc_lower=_parse_opt_float(parts[9]),
                best_protocol=parts[10],
                wall_ms=float(parts[11]),
            )
        )
    return rows


def tail_to_csv(rows, path: str | Path) -> None:
    lines = [TAIL_CSV_HEADER] + [row_to_csv(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")
