"""effectgov benchmark: one seeded closed-loop workload, checked, as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload agent_tasks --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no wrappers installed. With
``--trace 1`` the run installs the wrappers, records alternate blocks of
operations and reports the per-layer metrics, including the tracing
overhead against the blocks in between. The line
before it holds run details: the realised mix, sample counts, the metric
names the workload's users know, and, when traced, the full layer table.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POLICY = BENCH_DIR / "policy.json"
# Set-up probes taken before and again after the measured phase. The
# fastest of them is the set-up time: neighbours' load only ever adds to a
# probe, and probing at two moments makes it likelier that one is quiet.
SETUP_PROBES = 5

# The names each workload's users know its figures by: (statistic, scale).
USER_NAMES = {
    "agent_tasks": {"task_p50_ms": ("p50_ms", 1.0), "task_p99_ms": ("p99_ms", 1.0),
                    "actions_per_s": ("work_per_s", 1.0)},
    "long_session": {"issue_p50_us": ("p50_ms", 1e3), "issue_p99_us": ("p99_ms", 1e3),
                     "issues_per_s": ("work_per_s", 1.0)},
    "chain_audit": {"audit_chain_p50_ms": ("p50_ms", 1.0),
                    "audit_records_per_s": ("work_per_s", 1.0)},
    "monitor_sweep": {"monitor_trial_actions_per_s": ("work_per_s", 1.0)},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(USER_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def percentile(sorted_values: list, share: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def measure_setup(count: int, warmup: bool = False) -> list[dict]:
    """Time `count` fresh interpreters doing the set-up, after an optional warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(POLICY)]
    probes = []
    for index in range(count + warmup):
        start = perf_counter()
        done = subprocess.run(command, env=env, capture_output=True, check=True, timeout=120)
        wall = perf_counter() - start
        probe = json.loads(done.stdout)
        if Path(probe["effectgov_file"]).resolve().parent != SRC / "effectgov":
            raise RuntimeError(f"set-up imported effectgov from {probe['effectgov_file']}")
        if index or not warmup:
            probes.append(dict(probe, wall_s=wall))
    return probes


def fastest(probes: list[dict], key: str) -> float:
    return min(probe[key] for probe in probes)


def timing(tally) -> dict:
    """Latency percentiles of one operation, and work per second of operation time."""
    latencies = sorted(tally.latencies_ns)
    stats = {f"p{q}_ms": percentile(latencies, q / 100) / 1e6 for q in (50, 90, 99)}
    stats["work_per_s"] = tally.work / (sum(latencies) / 1e9)
    return stats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effectgov" / "__init__.py").is_file():
        print(f"error: no effectgov package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import effectgov

    if Path(effectgov.__file__).resolve().parent != SRC / "effectgov":
        print(f"error: effectgov imported from {effectgov.__file__}", file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics, layer_table, traced_api
    from workloads import WORKLOADS, Api, Tally

    setup = measure_setup(SETUP_PROBES, warmup=True)
    policy = effectgov.load_policy(POLICY.read_bytes())
    workload = WORKLOADS[args.workload](args.seed, policy)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "work_unit": workload.work_unit}

    tally = Tally()
    if args.trace:
        tracer = Tracer()
        with traced_api(policy, tracer, workload.trace_block) as api:
            workload.run_phase(api, tally, args.seconds)
        setup += measure_setup(SETUP_PROBES)
        metrics = {
            "setup.import_numpy_ms": (fastest(setup, "import_numpy_ms"), "ms"),
            "setup.import_effectgov_ms": (fastest(setup, "import_effectgov_ms"), "ms"),
            "policy.load_policy.ms": (fastest(setup, "load_policy_ms"), "ms"),
            **layer_metrics(tracer, api),
        }
        details["layers"] = layer_table(tracer)
        details["samples"] = {"traced": len(api.op_ns[True]), "untraced": len(api.op_ns[False])}
    else:
        workload.run_phase(Api(policy), tally, args.seconds)
        setup += measure_setup(SETUP_PROBES)
        stats = timing(tally)
        # On a shared host the median, p99 and mean of one run move by a fifth
        # or more with the neighbours' load; p90 moves least, so only it is a
        # metric. The others are in the details.
        metrics = {
            "setup_s": (fastest(setup, "wall_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p90_ms": (stats["p90_ms"], "ms"),
        }
        details["timing"] = stats
        details["user_metrics"] = {
            name: stats[source] * scale
            for name, (source, scale) in USER_NAMES[args.workload].items()
        }
        details["samples"] = len(tally.latencies_ns)
    details["mix"] = tally.mix()

    attempted, failed = tally.attempted, tally.failed
    details["failed_share"] = failed / attempted
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
