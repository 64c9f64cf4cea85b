"""Command line front end.

Exit codes: 0 success; 1 usage error, before any work or output file (bad
flags or flag combinations, state specs and eg search parameters that lab
rejects as StateSpecError, branch trees over locc.BRANCH_BUDGET_BYTES); 2
runtime error (missing or malformed input files, bad JSON, unknown ensemble
kinds, protocols or eg methods in a config, failed computations).

Subcommands:
    work        all work figures for one state
    eg          product-overlap exponent estimate only
    protocol    execute a protocol file on a state
    experiment  scaling (config-driven batch) and tail (overlap tail table)
    graph       gen: generate and save a graph
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import ensembles, graphs, lab, locc, workbounds

class UsageError(Exception):
    """Bad flag combination or out-of-range request; exits 1."""


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}") from exc


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--state",
        required=True,
        choices=("ghz", "w", "zero", "plus", "haar", "graph", "subset"),
        help="state family",
    )
    p.add_argument("--n", type=int, help="number of sites (named families and haar)")
    p.add_argument("--local-dim", type=int, default=2, help="site dimension (default 2)")
    p.add_argument("--seed", type=int, help="RNG seed (required for haar)")
    p.add_argument("--graph-file", help="graph file (required for --state graph)")
    p.add_argument("--support-file", help="support file (required for --state subset)")


def _state_spec(args) -> dict:
    """lab.build_state keywords for the --state flags.  A graph or support
    file is read here, once; a missing or malformed file exits 2."""
    num_sites, source = args.n, None
    if args.state == "graph":
        if not args.graph_file:
            raise UsageError("--state graph requires --graph-file")
        source = graphs.load_graph(args.graph_file)
        num_sites = source.num_vertices
    elif args.state == "subset":
        if not args.support_file:
            raise UsageError("--state subset requires --support-file")
        source = ensembles.load_subset_spec(args.support_file)
        num_sites = source.num_sites
    elif num_sites is None:
        raise UsageError(f"--state {args.state} requires --n")
    return dict(kind=args.state, num_sites=num_sites, seed=args.seed,
                local_dim=args.local_dim, source=source)


def _cmd_work(args) -> int:
    spec = _state_spec(args)
    rng_seed = args.seed if args.seed is not None else 0
    lab._check_eg(args.eg_method, spec["num_sites"], args.local_dim,
                  restarts=args.restarts, grid=args.grid, seed=rng_seed)
    state, graph = lab.build_state(**spec)
    report = lab.work_report(
        state,
        graph,
        eg_method=None if args.eg_method == "none" else args.eg_method,
        restarts=args.restarts,
        grid=args.grid,
        rng_seed=rng_seed,
    )
    print(f"sites {state.num_sites}")
    print(f"w_global {report.w_global!r}")
    print(f"w_local {report.w_local!r}")
    if report.eg_value is not None:
        print(f"eg_value {report.eg_value!r}")
        print(f"eg_cert {report.eg_cert}")
        print(f"w_locc_upper {report.w_locc_upper!r}")
    print(f"w_locc_lower {report.w_locc_lower!r}")
    print(f"best_protocol {report.best_protocol}")
    return 0


def _cmd_eg(args) -> int:
    spec = _state_spec(args)
    n = spec["num_sites"]
    if args.method == "schmidt":
        cut = tuple(_parse_int_list(args.cut))
        if (not cut or any(b <= a for a, b in zip(cut, cut[1:])) or cut[0] < 0
                or cut[-1] >= n or len(cut) >= n):
            raise UsageError(
                f"--cut must list sites of 0..{n - 1} in increasing order, at least one "
                f"and not all of them; got {args.cut!r}"
            )
    rng_seed = args.seed if args.seed is not None else 0
    lab._check_eg(args.method, n, args.local_dim,
                  restarts=args.restarts, grid=args.grid, seed=rng_seed)
    state, _ = lab.build_state(**spec)
    if args.method == "schmidt":
        value = workbounds.eg_schmidt(state, cut)
        cert = workbounds.CERT_SCHMIDT if state.num_sites == 2 else "cut_lower_bound"
        print(f"eg_value {value!r}")
        print(f"eg_cert {cert}")
        return 0
    est = lab.eg_estimate(
        state,
        args.method,
        restarts=args.restarts,
        grid=args.grid,
        rng_seed=rng_seed,
    )
    print(f"eg_value {est.value!r}")
    print(f"eg_cert {est.certification}")
    print(f"restarts_used {est.restarts_used}")
    return 0


def _cmd_protocol(args) -> int:
    spec = _state_spec(args)
    lab.check_state(**spec)
    protocol = locc.load_protocol(args.file)
    if protocol.num_sites != spec["num_sites"]:
        raise UsageError(
            f"protocol acts on {protocol.num_sites} sites but the state has {spec['num_sites']}"
        )
    if protocol.local_dim != spec["local_dim"]:
        raise UsageError(
            f"protocol measures sites of dimension {protocol.local_dim} but the state's "
            f"have dimension {spec['local_dim']}"
        )
    if args.prune < 0 or args.prune > 1e-12:
        raise UsageError("--prune must lie in [0, 1e-12]")
    state, _ = lab.build_state(**spec)
    tree = locc.execute(protocol, state, prune_below=args.prune)
    work = locc.protocol_work(tree)
    print(f"protocol {protocol.name}")
    print(f"leaves {work.leaf_count}")
    print(f"dropped_mass {tree.dropped_mass!r}")
    print(f"outcome_entropy {work.outcome_entropy!r}")
    print(f"local_term {work.local_term!r}")
    print(f"work {work.w_lambda!r}")
    return 0


def _cmd_scaling(args) -> int:
    cfg = lab.load_config(args.config)
    rows = lab.run_scaling(cfg)
    if cfg.output:
        print(f"wrote {len(rows)} rows to {cfg.output}")
    else:
        lab.write_csv(lab.ResultRow, rows, sys.stdout)
    if cfg.w_local and len(cfg.n_values) >= 2:
        means = [
            float(np.mean([r.w_local for r in rows if r.n == n])) for n in cfg.n_values
        ]
        slope, stderr, _ = lab.fit_slope(cfg.n_values, means)
        print(f"w_local_slope {slope!r} stderr {stderr!r}")
    return 0


def _cmd_tail(args) -> int:
    alphas = _parse_float_list(args.alphas)
    if not alphas or any(a <= 0 for a in alphas):
        raise UsageError("--alphas must list positive values")
    if args.ensemble == "circuit" and (args.depth is None or args.design_order is None):
        raise UsageError("circuit tails require --depth and --design-order")
    rows = lab.run_tail(
        args.ensemble,
        args.n,
        args.samples,
        alphas,
        args.seed,
        depth=args.depth,
        design_order=args.design_order,
    )
    if args.output:
        lab.tail_to_csv(rows, args.output)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        lab.write_csv(lab.TailRow, rows, sys.stdout)
    return 0


def _cmd_graph_gen(args) -> int:
    if args.kind == "random":
        if args.n is None or args.seed is None:
            raise UsageError("random graphs require --n and --seed")
        g = graphs.gen_random_graph(args.n, args.seed)
    else:
        if not args.dims:
            raise UsageError(f"{args.kind} lattices require --dims")
        g = graphs.gen_lattice(args.kind, tuple(_parse_int_list(args.dims)))
    graphs.save_graph(g, args.output)
    ind = graphs.greedy_independent_set(g)
    print(f"vertices {g.num_vertices}")
    print(f"edges {len(g.edges)}")
    print(f"max_degree {max(g.degrees()) if g.num_vertices else 0}")
    print(f"greedy_independent_set {len(ind.vertices)}")
    print(f"caro_wei {graphs.caro_wei_bound(g)!r}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccwork",
        description="Work extraction figures for small multipartite pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_work = sub.add_parser("work", help="all work figures for one state")
    _add_state_flags(p_work)
    p_work.add_argument(
        "--eg-method",
        default="alternating",
        choices=("alternating", "bruteforce", "none"),
        help="exponent estimator for the upper bound",
    )
    p_work.add_argument("--restarts", type=int, default=workbounds.DEFAULT_RESTARTS)
    p_work.add_argument("--grid", type=int, default=workbounds.DEFAULT_GRID)
    p_work.set_defaults(func=_cmd_work)

    p_eg = sub.add_parser("eg", help="product-overlap exponent estimate")
    _add_state_flags(p_eg)
    p_eg.add_argument(
        "--method",
        default="alternating",
        choices=("alternating", "bruteforce", "schmidt"),
    )
    p_eg.add_argument("--restarts", type=int, default=workbounds.DEFAULT_RESTARTS)
    p_eg.add_argument("--grid", type=int, default=workbounds.DEFAULT_GRID)
    p_eg.add_argument("--cut", default="0", help="comma-separated sites (schmidt only)")
    p_eg.set_defaults(func=_cmd_eg)

    p_proto = sub.add_parser("protocol", help="execute a protocol file on a state")
    p_proto.add_argument("--file", required=True, help="protocol description file")
    p_proto.add_argument("--prune", type=float, default=0.0)
    _add_state_flags(p_proto)
    p_proto.set_defaults(func=_cmd_protocol)

    p_exp = sub.add_parser("experiment", help="batch experiments")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    p_scal = exp_sub.add_parser("scaling", help="config-driven scaling run")
    p_scal.add_argument("--config", required=True, help="JSON config file")
    p_scal.set_defaults(func=_cmd_scaling)

    p_tail = exp_sub.add_parser("tail", help="overlap tail table")
    p_tail.add_argument("--ensemble", required=True, choices=("haar", "circuit"))
    p_tail.add_argument("--n", type=int, required=True)
    p_tail.add_argument("--samples", type=int, required=True)
    p_tail.add_argument("--alphas", required=True, help="comma-separated values")
    p_tail.add_argument("--seed", type=int, required=True)
    p_tail.add_argument("--depth", type=int)
    p_tail.add_argument("--design-order", type=int)
    p_tail.add_argument("--output")
    p_tail.set_defaults(func=_cmd_tail)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gen = graph_sub.add_parser("gen", help="generate and save a graph")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=("random", "cycle", "square_torus", "triangular_torus", "hexagonal"),
    )
    p_gen.add_argument("--n", type=int, help="vertex count (random)")
    p_gen.add_argument("--seed", type=int, help="RNG seed (random)")
    p_gen.add_argument("--dims", help="comma-separated lattice dimensions")
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=_cmd_graph_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser cli_main reuses; parsing leaves it unchanged."""
    return build_parser()


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for bad usage; bad usage is 1 here.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (UsageError, lab.StateSpecError, locc.BranchBudgetError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
