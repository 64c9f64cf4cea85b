"""Benchmark of the loccwork CLI: one workload, one process, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload protocol-trees --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs under perfbench/_out/<workload>/, calls
``loccwork.cli.cli_main`` once per operation, checks every output, and prints
as its last stdout line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are pass_s, peak_rss_mb and setup_s; with
``--trace 1`` they are the per-layer figures of layertrace.py.  Pass times
are scaled to a fixed host speed with the reference slices of hostspeed.py.
See README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS / OpenMP thread and serial scaling rows, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LOCCWORK_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "loccwork"
OUT_DIR = BENCH_DIR / "_out"


class Tally:
    """Operations attempted and failed over the whole run, warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op: workloads.Op, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.correct = False
            print(f"perfbench: {op.name} exited {code}: {stderr.strip()}", file=sys.stderr)
            return
        try:
            op.check(stdout)
        except (workloads.CheckFailed, ValueError, TypeError, KeyError, OSError) as exc:
            self.failed += 1
            self.correct = False
            print(f"perfbench: {op.name} check failed: {exc!r}", file=sys.stderr)


class Pass:
    """One pass: the summed wall time of its calls, the same time scaled to
    the nominal host speed, and the reference slices taken around the calls."""

    def __init__(self, wall: float, scaled: float, slices: list) -> None:
        self.wall, self.scaled, self.slices = wall, scaled, slices


def run_pass(cli, ops: list, tally: Tally) -> Pass:
    """Call every operation once, with a reference slice before the first
    call and after each one.

    A call's scaled time is its wall time times NOMINAL_SLICE_S over the
    mean of the slices on either side of it.  Checks run after each call and
    are not timed.  A full collection first keeps garbage from the previous
    pass out of this pass's time."""
    gc.collect()
    slices = [hostspeed.slice_seconds()]
    wall = scaled = 0.0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(list(op.argv))
        elapsed = time.perf_counter() - t0
        tally.record(op, code, out.getvalue(), err.getvalue())
        slices.append(hostspeed.slice_seconds())
        wall += elapsed
        scaled += elapsed * 2.0 * hostspeed.NOMINAL_SLICE_S / (slices[-2] + slices[-1])
    return Pass(wall, scaled, slices)


def measure(seconds: float, one_pass) -> list:
    """Repeat one_pass while the next one is expected to end within `seconds`."""
    began = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - began + statistics.mean(durations) > seconds:
            return results


def host_slowdown(passes: list) -> float:
    """Median reference slice over the nominal one: above 1 means a slow host."""
    return statistics.median(s for p in passes for s in p.slices) / hostspeed.NOMINAL_SLICE_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: no loccwork sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import loccwork.cli as cli

    if Path(cli.__file__).resolve().parent != PACKAGE_DIR:
        print(f"perfbench: imported loccwork from {cli.__file__}", file=sys.stderr)
        return 2

    work_dir = OUT_DIR / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = time.perf_counter() - _START

    tally = Tally()
    run_pass(cli, ops, tally)  # warm-up: the first pass in a process is the slowest
    if args.trace:
        tracer = layertrace.Tracer()
        untraced, traced = [], []

        def pair() -> None:
            untraced.append(run_pass(cli, ops, tally))
            with tracer.installed():
                traced.append(run_pass(cli, ops, tally))
            tracer.end_pass()

        measure(args.seconds, pair)
        figures = tracer.metrics(
            traced_pass_s=statistics.median(p.scaled for p in traced),
            untraced_pass_s=statistics.median(p.scaled for p in untraced),
            traced_wall_s=statistics.median(p.wall for p in traced),
        )
        figures["trace.host_slowdown"] = (host_slowdown(untraced + traced), "ratio")
    else:
        passes = measure(args.seconds, lambda: run_pass(cli, ops, tally))
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = {
            "pass_s": (statistics.median(p.scaled for p in passes), "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"perfbench: {len(passes)} timed passes, scaled "
              f"{[round(p.scaled, 3) for p in passes]}, wall {[round(p.wall, 3) for p in passes]}, "
              f"host slowdown {host_slowdown(passes):.3f}", file=sys.stderr)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
