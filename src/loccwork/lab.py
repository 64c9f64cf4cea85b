"""Experiment harness: batch scaling runs, overlap tail checks, report IO.

Reproducibility contract: every row draws its state from a seed derived as

    row_seed = base_seed XOR crc32("{N}:{sample_index}")

so the same config file always produces the same numbers (wall_ms aside),
regardless of execution order.  Rows are emitted in (N, sample) order.

check_state is the one judge of a state spec (a family, N and its
parameters) and allocates nothing; build_state runs it, then builds the
state; work_report evaluates one state.  The CLI, ExperimentConfig (every N,
with workbounds.check_eg for its eg search) and run_tail check first, so a
bad spec fails before any work or file.
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

from . import ensembles, graphs, locc, workbounds
from .qstate import PureState, StateSpecError

CSV_HEADER = (
    "ensemble,N,sample,seed,w_global,w_local,eg_value,eg_cert,"
    "w_locc_upper,w_locc_lower,best_protocol,wall_ms"
)
TAIL_CSV_HEADER = "alpha,threshold,exceed_count,samples,empirical,bound,wilson_low,wilson_high"

# Exponential tail rate for uniformly random states: 2/(9 pi^3 ln 2).
TAIL_C1 = 2.0 / (9.0 * math.pi**3 * math.log(2.0))

# run_tail's Haar draws go through one buffer of at most this many bytes.
_TAIL_CHUNK_BYTES = 2**21

# Two-sided 99% normal quantile, used for Wilson intervals.
Z_99 = 2.5758293035489004

GRAPH_KINDS = (*graphs.LATTICE_DIMS, "random_graph")
ENSEMBLE_KINDS = ("haar", "circuit", "subset") + GRAPH_KINDS
# The protocol menu: each name's builder from (state, graph), in the order
# of the standard menu.
_PROTOCOLS = {
    "null": lambda state, graph: locc.null_protocol(state.num_sites, state.local_dim),
    "computational": lambda state, graph: locc.subset_protocol(state.num_sites, state.local_dim),
    "independent-set": lambda state, graph: locc.independent_set_protocol(graph),
    "refined-null": lambda state, graph: locc.refine_rank_one(
        _PROTOCOLS["null"](state, graph), state),
}
PROTOCOL_NAMES = tuple(_PROTOCOLS)

_SUBSET_K_RULE = re.compile(r"^2\^\(N/([1-9]\d*)\)$")

# Largest dense state any spec may ask for: 2^24 amplitudes is 256 MiB.
MAX_DENSE_SITES = 24

_STATE_KINDS = ("ghz", "zero", "w", "plus", "haar", "circuit", "subset", "graph") + GRAPH_KINDS
_SEEDED_KINDS = ("haar", "circuit", "subset", "random_graph")
_QUBIT_KINDS = ("w", "plus", "subset", "graph") + GRAPH_KINDS


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
    """Least-squares slope with its standard error: (slope, stderr, intercept).

    The ordinary least-squares closed form on population (co)variances.
    The correlation r is clipped to [-1, 1] and is NaN when a variance and
    the covariance are both 0, so a constant y has stderr NaN; two points
    have stderr 0.0.  Raises ValueError on empty or unequal-length input,
    or on more than one point with all x identical.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("fit_slope needs at least one point")
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    n = len(x)
    if n > 1 and x.max() == x.min():
        raise ValueError("cannot fit a slope when all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = 0.0 if n == 2 else np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return float(slope), float(stderr), float(intercept)


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
    eg_restarts: int = workbounds.DEFAULT_RESTARTS
    eg_grid: int = workbounds.DEFAULT_GRID
    protocols: tuple = ("null",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if self.ensemble_kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.ensemble_kind!r}")
        if not self.n_values:
            raise ValueError("n_values must not be empty")
        if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly ascending")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if isinstance(self.subset_k, str) and not _SUBSET_K_RULE.match(self.subset_k):
            raise ValueError(f'bad k rule {self.subset_k!r}; use an int or "2^(N/D)"')
        if self.eg_method is not None and self.eg_method not in workbounds.EG_METHODS:
            raise ValueError(f"unknown eg method {self.eg_method!r}")
        menu = _protocol_menu(self.protocols, self.ensemble_kind in GRAPH_KINDS)
        object.__setattr__(self, "protocols", menu)
        for n in self.n_values:
            check_state(**self._state_spec(n, self.seed))
            workbounds.check_eg(self.eg_method, n, self.local_dim, restarts=self.eg_restarts,
                                grid=self.eg_grid, seed=self.seed)

    def _state_spec(self, num_sites: int, seed: int) -> dict:
        """check_state / build_state keywords for one row."""
        return dict(kind=self.ensemble_kind, num_sites=num_sites, seed=seed,
                    local_dim=self.local_dim, depth=self.depth, rows=self.rows,
                    k=self.resolve_k(num_sites))

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
    Graph and subset ensembles are qubit ensembles: local_dim is 2 for them.
    """
    raw = json.loads(Path(path).read_text())
    ens = raw.get("ensemble")
    if not isinstance(ens, dict) or "kind" not in ens:
        raise ValueError(f"{path}: config needs an ensemble object with a kind")
    est = raw.get("estimators", {})
    eg = est.get("eg")
    eg_opts = {} if eg is None else eg
    return ExperimentConfig(
        ensemble_kind=ens["kind"],
        n_values=tuple(raw.get("n_values", ())),
        samples=int(raw.get("samples", 0)),
        seed=int(raw.get("seed", -1)),
        output=raw.get("output"),
        local_dim=2 if ens["kind"] in _QUBIT_KINDS else int(ens.get("local_dim", 2)),
        depth=ens.get("depth"),
        rows=ens.get("rows"),
        subset_k=ens.get("k"),
        w_local=bool(est.get("w_local", True)),
        eg_method=None if eg is None else eg.get("method", "alternating"),
        eg_restarts=int(eg_opts.get("restarts", workbounds.DEFAULT_RESTARTS)),
        eg_grid=int(eg_opts.get("grid", workbounds.DEFAULT_GRID)),
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


def check_state(kind: str, num_sites: int, *, seed: int | None = None, local_dim: int = 2,
                depth: int | None = None, rows: int | None = None, k: int | None = None,
                source=None) -> None:
    """Raises StateSpecError exactly where build_state would fail on this
    spec, and allocates nothing (a lattice's small graph aside).

    Checked: the family is known; a graph state has a loaded Graph, and a
    loaded Graph or SubsetSpec has num_sites sites; sampled families without
    a source have a seed >= 0; num_sites >= 1 (w and circuit: >= 2);
    local_dim >= 2, and 2 for the qubit families (w, plus, subset, graph and
    the lattices); local_dim^num_sites <= 2^MAX_DENSE_SITES; a circuit has
    depth >= 0; a lattice has rows >= 2 dividing num_sites in a shape
    graphs.gen_lattice accepts; a sampled subset has 1 <= k <= 2^N.
    """
    if kind not in _STATE_KINDS:
        raise StateSpecError(f"unknown state family {kind!r}")
    if source is not None:
        sites = source.num_vertices if kind == "graph" else source.num_sites
        if sites != num_sites:
            raise StateSpecError(f"the loaded {kind} has {sites} sites, not {num_sites}")
    elif kind == "graph":
        raise StateSpecError("graph states need a loaded graph")
    elif kind in _SEEDED_KINDS and (seed is None or seed < 0):
        raise StateSpecError(f"{kind} states need a seed >= 0")
    min_sites = 2 if kind in ("w", "circuit") else 1
    if num_sites < min_sites:
        raise StateSpecError(f"{kind} states need num_sites >= {min_sites}")
    if local_dim < 2:
        raise StateSpecError("local_dim must be >= 2")
    if local_dim != 2 and kind in _QUBIT_KINDS:
        raise StateSpecError(f"{kind} states are qubit states")
    # num_sites > MAX_DENSE_SITES alone exceeds the cap, and skips a huge power.
    if num_sites > MAX_DENSE_SITES or local_dim**num_sites > 2**MAX_DENSE_SITES:
        raise StateSpecError(
            f"state dimension {local_dim}^{num_sites} exceeds the dense cap 2^{MAX_DENSE_SITES}"
        )
    if kind == "circuit" and (depth is None or depth < 0):
        raise StateSpecError("circuit states need a depth >= 0")
    if kind == "subset" and source is None and (k is None or not 1 <= k <= 2**num_sites):
        raise StateSpecError(f"subset states need a k in 1..2^{num_sites}; k={k} is out of range")
    if kind in GRAPH_KINDS and kind != "random_graph":
        dims = _lattice_dims(kind, num_sites, rows)
        try:
            graphs.gen_lattice(kind, dims)
        except ValueError as exc:
            raise StateSpecError(str(exc)) from exc


def _lattice_dims(kind: str, num_sites: int, rows: int | None) -> tuple:
    if kind == "cycle":
        return (num_sites,)
    if rows is None or rows < 2:
        raise StateSpecError(f"{kind} states need rows >= 2")
    if num_sites % rows:
        raise StateSpecError(f"N={num_sites} not divisible by rows={rows}")
    return (rows, num_sites // rows)


def build_state(kind: str, num_sites: int, *, seed: int | None = None, local_dim: int = 2,
                depth: int | None = None, rows: int | None = None, k: int | None = None,
                source=None):
    """Returns (state, graph_or_None) for one spec, after check_state.

    Named families: ghz, zero (any local_dim), w, plus.  Sampled families,
    which need a seed: haar, circuit (depth brickwork layers), subset (k
    random bitstrings) and random_graph.  Lattices: cycle, and square_torus,
    triangular_torus and hexagonal with `rows` rows.  Loaded: graph (source
    a Graph) and subset (source a SubsetSpec, in place of k and seed).
    """
    check_state(kind, num_sites, seed=seed, local_dim=local_dim, depth=depth, rows=rows, k=k,
                source=source)
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
        if source is None:
            source = ensembles.sample_subset(num_sites, k, seed)
        return ensembles.subset_state(source), None
    if kind == "graph":
        g = source
    elif kind == "random_graph":
        g = graphs.gen_random_graph(num_sites, seed)
    else:
        g = graphs.gen_lattice(kind, _lattice_dims(kind, num_sites, rows))
    return ensembles.graph_state(g), g


def _protocol_menu(names, has_graph: bool) -> tuple:
    """The protocol names a row or report runs: null first, then `names` in
    order, without repeats.  None names the standard menu, PROTOCOL_NAMES
    with independent-set only when there is a graph.  Null keeps every lower
    bound at or above the local figure, and wins ties."""
    if names is None:
        names = [p for p in PROTOCOL_NAMES if has_graph or p != "independent-set"]
    bad = set(names) - set(PROTOCOL_NAMES)
    if bad:
        raise ValueError(f"unknown protocols {sorted(bad)}")
    if "independent-set" in names and not has_graph:
        raise ValueError("independent-set protocol requires a graph")
    return tuple(dict.fromkeys(("null",) + tuple(names)))


def run_scaling(cfg: ExperimentConfig) -> list:
    """Evaluate all (N, sample) rows in order; stream them to cfg.output as CSV."""
    rows = _scaling_rows(cfg)
    if not cfg.output:
        return list(rows)
    with open(cfg.output, "w") as sink:
        return write_csv(ResultRow, rows, sink)


def _scaling_rows(cfg: ExperimentConfig):
    for n in cfg.n_values:
        for sample in range(cfg.samples):
            seed = derive_row_seed(cfg.seed, n, sample)
            t0 = time.perf_counter()
            state, graph = build_state(**cfg._state_spec(n, seed))
            report = work_report(state, graph, eg_method=cfg.eg_method,
                                 restarts=cfg.eg_restarts, grid=cfg.eg_grid, rng_seed=seed,
                                 protocols=cfg.protocols, w_local=cfg.w_local)
            yield ResultRow(ensemble=cfg.ensemble_kind, n=n, sample=sample, seed=seed,
                            wall_ms=(time.perf_counter() - t0) * 1000.0, **asdict(report))


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
    (t/alpha)^t with t = design_order.  Before the first draw, alphas (none,
    or any not > 0) and specs raise StateSpecError; an unknown ensemble, under
    1000 samples, or a circuit without design_order >= 1 raise ValueError.
    """
    alphas = list(alphas)
    if not alphas or not all(a > 0 for a in alphas):
        raise StateSpecError("alphas must list positive values")
    if ensemble_kind not in ("haar", "circuit"):
        raise ValueError(f"unknown tail ensemble {ensemble_kind!r}")
    check_state(ensemble_kind, num_sites, seed=seed, depth=depth)
    if samples < 1000:
        raise ValueError("tail estimates need at least 1000 samples")
    if ensemble_kind == "circuit" and (design_order is None or design_order < 1):
        raise ValueError("circuit tail needs design_order >= 1")
    dim = 2**num_sites
    if ensemble_kind == "haar":
        # Blocks of 20 000 rows, real parts drawn before imaginary parts, fix
        # the RNG stream; drawing into one reused buffer of at most
        # _TAIL_CHUNK_BYTES (or one row when a row is larger) keeps memory
        # flat in D.
        overlaps = np.empty(samples)
        rng = np.random.default_rng(seed)
        chunk = max(1, _TAIL_CHUNK_BYTES // (8 * dim))
        buf = np.empty((min(chunk, samples, 20_000), dim))
        for start in range(0, samples, 20_000):
            m = min(20_000, samples - start)
            first = np.zeros(m)
            total = np.zeros(m)
            for _part in ("real", "imag"):
                for lo in range(0, m, chunk):
                    x = rng.standard_normal(out=buf[: min(chunk, m - lo)])
                    first[lo : lo + len(x)] += x[:, 0] ** 2
                    total[lo : lo + len(x)] += np.einsum("ij,ij->i", x, x)
            overlaps[start : start + m] = first / total
    else:
        # Sample i is the circuit seeded seed + i; chunks run batched.
        spec = ensembles.CircuitSpec(num_sites, depth, seed)
        overlaps = np.concatenate(
            [np.abs(amps[:, 0]) ** 2 for amps in ensembles.sample_circuits(spec, samples)]
        )

    out = []
    for alpha in alphas:
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


def work_report(
    state: PureState,
    graph=None,
    *,
    eg_method: str | None = "alternating",
    restarts: int = workbounds.DEFAULT_RESTARTS,
    grid: int = workbounds.DEFAULT_GRID,
    rng_seed: int = 0,
    protocols=None,
    w_local: bool = True,
) -> WorkReport:
    """Single-state bundle: both functionals, the exponent estimate with its
    ceiling, and the best protocol lower bound over a menu.

    `protocols` names the menu in order, after the null protocol, which
    always comes first; ties go to the earliest.  None is the standard
    menu: null, computational, independent-set (only with a graph) and
    refined-null.  eg_method None skips the estimate and w_local False
    skips the local figure; both leave None.
    """
    names = _protocol_menu(protocols, graph is not None)
    w_g = workbounds.w_global(state)
    w_l = workbounds.w_local(state) if w_local else None
    eg_value, eg_cert, upper = None, "", None
    if eg_method is not None:
        est = workbounds.eg_estimate(state, eg_method, restarts=restarts, grid=grid,
                                     rng_seed=rng_seed)
        upper, eg_cert = workbounds.w_locc_upper(state, est)
        eg_value = est.value
    menu = [_PROTOCOLS[name](state, graph) for name in names]
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


def write_csv(row_type, rows, sink) -> list:
    """The one CSV writer: row_type's header (CSV_HEADER for ResultRow,
    TAIL_CSV_HEADER for TailRow), then one line per row, flushed as each row
    arrives, so rows may stream from a generator.  Both row types declare
    their fields in the order of their header's columns.  Returns the rows
    written, as a list."""
    sink.write({ResultRow: CSV_HEADER, TailRow: TAIL_CSV_HEADER}[row_type] + "\n")
    written = []
    for row in rows:
        sink.write(",".join(_fmt(v) for v in astuple(row)) + "\n")
        sink.flush()
        written.append(row)
    return written


def emit_report(rows, path: str | Path, fmt: str = "csv") -> None:
    """Write rows as CSV (fixed header) or JSON; floats round-trip exactly."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w") as sink:
            write_csv(ResultRow, rows, sink)
    elif fmt == "json":
        path.write_text(json.dumps([asdict(r) for r in rows], indent=1) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


# read_report's parser for each field type that ResultRow declares.
_CSV_PARSERS = {"str": str, "int": int, "float": float,
                "float | None": lambda text: None if text == "" else float(text)}


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
    parsers = [_CSV_PARSERS[f.type] for f in fields(ResultRow)]
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(parsers):
            raise ValueError(f"{path}: bad row {ln!r}")
        rows.append(ResultRow(*(parse(text) for parse, text in zip(parsers, parts))))
    return rows


def tail_to_csv(rows, path: str | Path) -> None:
    with Path(path).open("w") as sink:
        write_csv(TailRow, rows, sink)
