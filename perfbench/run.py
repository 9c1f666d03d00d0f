"""Benchmark entry point for the worksite simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig1_30min --seed 11 --seconds 24 --trace 0

``--trace 0`` times the workload with no observer installed and reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
separate traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import time

# set-up time runs from here: before anything imports the simulator
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "sim_s_per_wall_s": "s/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: fresh processes timing set-up, besides this process's own set-up
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it has waited for
    (the sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probes(args) -> list:
    """Set-up times of fresh processes, each exactly as this one set up."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no simulator sources under {SRC}; run from a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
        return 2
    suffix = "-probe" if args.setup_probe else ""
    workdir = WORK / f"{args.workload}{suffix}"
    workloads.clean(workdir)
    workdir.mkdir(parents=True)
    tally = workloads.Tally(log)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), workdir, tally,
        workloads.Expected(WORK / "expected.json"),
    )
    try:
        workload.setup(T0)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            values = workload.trace(WORK / f"spans-{args.workload}.csv")
            units = {name: unit for name, (unit, _) in
                     workloads.layers.PER_LAYER.items()}
        else:
            values = workload.measure()
            values["peak_rss_mb"] = peak_rss_mb()
            values["setup_s"] = statistics.median([setup_s] + setup_probes(args))
            units = END_TO_END
    finally:
        workloads.clean(workdir)
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(values.items())
    }
    for name, entry in metrics.items():
        log(f"{args.workload}: {name} = {entry['value']:.6g} {entry['unit']}")
    log(f"{args.workload}: {tally.failed}/{tally.attempted} failed "
        f"(failed_frac {tally.failed_frac:.4g})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
