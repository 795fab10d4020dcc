"""Command-line surface: run scenarios, verify chains, analyze boundaries.

Exit codes are uniform across subcommands: 0 success, 1 a governance
finding (non-coterminous regions, invalid chain), 2 usage or parse error,
including any input file that cannot be read as the expected document.
Output is machine-readable JSON unless --human is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .analysis import gap_probability, regions, simulate_monitor
from .bench import REFERENCE_MEDIANS_MS, bench_governed_vs_direct
from .directives import JSON_ERRORS, DirectiveError, check_fields, load_json
from .kernel import GovernanceKernel
from .policy import PolicyError, load_policy
from .provenance import ChainFormatError, ChainIntegrityError, ExecStatus, import_chain
from .scenario import ScenarioError, load_scenario
from .simworld import seeded_world, standard_registry
from .workflow import WorkflowError, run as run_workflow

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    print(f"effectgov: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(obj: dict, human: bool, human_lines) -> None:
    if human:
        for line in human_lines(obj):
            print(line)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(Path(args.scenario).read_bytes())
    except (OSError, ScenarioError) as exc:
        return _fail(f"scenario {args.scenario}: {exc}")
    policy_path = args.policy
    if policy_path is None:
        if scenario.policy_ref is None:
            return _fail("no policy: pass --policy or set 'policy' in the scenario")
        policy_path = str((Path(args.scenario).parent / scenario.policy_ref).resolve())
    try:
        policy = load_policy(Path(policy_path).read_bytes())
    except (OSError, PolicyError) as exc:
        return _fail(f"policy {policy_path}: {exc}")

    world = seeded_world()
    kernel = GovernanceKernel(policy, standard_registry(), world)
    failure = None
    try:
        result = run_workflow(scenario.workflow, scenario.input, kernel, trust=scenario.trust)
    except (WorkflowError, DirectiveError) as exc:
        failure = f"workflow: {exc}"

    # A failed workflow still leaves the record of every effect it issued.
    try:
        Path(args.out).write_bytes(kernel.chain.export())
    except OSError as exc:
        prefix = "" if failure is None else f"{failure}; "
        return _fail(f"{prefix}cannot write chain {args.out}: {exc}")
    if failure is not None:
        return _fail(f"{failure} ({len(kernel.chain)} records written to {args.out})")

    chain = kernel.chain
    # A record is skipped exactly when it is denied, a chain rule.
    statuses = Counter(record.exec_status for record in chain.records)
    summary = {
        "records": len(chain),
        "tip": chain.tip.hex(),
        "allows": len(chain) - statuses[ExecStatus.SKIPPED],
        "denies": statuses[ExecStatus.SKIPPED],
        "executed": statuses[ExecStatus.EXECUTED],
        "failed": statuses[ExecStatus.FAILED],
        "handler_missing": statuses[ExecStatus.HANDLER_MISSING],
        "theater_directive_ids": list(kernel.theater_directive_ids),
        "world": {
            "emails_sent": len(world.outbox),
            "db_reads": sum(1 for kind, _ in world.journal if kind == "db.query"),
            "urls_fetched": len(world.http_log),
        },
        "output": result.output,
        "chain": args.out,
    }

    def lines(s):
        yield f"records {s['records']} (allow {s['allows']}, deny {s['denies']})"
        yield (
            f"world: {s['world']['emails_sent']} emails, "
            f"{s['world']['db_reads']} db reads, {s['world']['urls_fetched']} fetches"
        )
        if s["theater_directive_ids"]:
            yield f"theater configuration hit by directives {s['theater_directive_ids']}"
        yield f"chain written to {s['chain']}, tip {s['tip']}"

    _emit(summary, args.human, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        data = Path(args.chain).read_bytes()
    except OSError as exc:
        return _fail(f"chain {args.chain}: {exc}")
    try:
        chain = import_chain(data)
    except ChainFormatError as exc:
        return _fail(f"chain {args.chain}: {exc}")
    except ChainIntegrityError as exc:
        obj = {"valid": False, "first_bad_index": exc.index}
        _emit(obj, args.human, lambda s: [f"INVALID at record {s['first_bad_index']}"])
        return EXIT_FINDING
    obj = {"valid": True, "records": len(chain), "tip": chain.tip.hex()}
    _emit(obj, args.human, lambda s: [f"valid chain, {s['records']} records, tip {s['tip']}"])
    return EXIT_OK


def _cmd_regions(args) -> int:
    try:
        manifest = load_json(Path(args.capabilities).read_bytes())
        check_fields(manifest, {"capabilities"}, set(), "manifest", ValueError)
        capabilities = manifest["capabilities"]
        if not isinstance(capabilities, list) or not all(
            isinstance(item, str) for item in capabilities
        ):
            raise ValueError("'capabilities' must be a list of strings")
    except (OSError, *JSON_ERRORS) as exc:
        return _fail(f"capability manifest {args.capabilities}: {exc}")
    try:
        policy = load_policy(Path(args.policy).read_bytes())
    except (OSError, PolicyError) as exc:
        return _fail(f"policy {args.policy}: {exc}")

    report = regions(frozenset(capabilities), policy)
    obj = report.to_json_obj()

    def lines(s):
        yield f"governed:   {', '.join(s['governed']) or '(none)'}"
        yield f"ungoverned: {', '.join(s['ungoverned']) or '(none)'}"
        yield f"theater:    {', '.join(s['theater']) or '(none)'}"
        yield "coterminous" if s["coterminous"] else "NOT coterminous"

    _emit(obj, args.human, lines)
    return EXIT_OK if report.coterminous else EXIT_FINDING


def _cmd_simulate_monitor(args) -> int:
    try:
        analytic = gap_probability(args.coverage, args.actions)
        empirical = simulate_monitor(args.coverage, args.actions, args.trials, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    obj = {
        "coverage": args.coverage,
        "actions": args.actions,
        "trials": args.trials,
        "seed": args.seed,
        "analytic": analytic,
        "empirical": empirical,
    }
    _emit(
        obj,
        args.human,
        lambda s: [
            f"analytic gap probability {s['analytic']:.6f}",
            f"empirical gap frequency {s['empirical']:.6f} ({s['trials']} trials, seed {s['seed']})",
        ],
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        governed, direct = bench_governed_vs_direct(iters=args.iters, warmup=args.warmup)
    except ValueError as exc:
        return _fail(str(exc))
    obj = {
        "governed": governed.to_json_obj(),
        "direct": direct.to_json_obj(),
        "overhead_ratio": governed.median_us / direct.median_us,
        "reference_medians_ms": REFERENCE_MEDIANS_MS,
    }
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            return _fail(f"cannot write report {args.out}: {exc}")

    def lines(s):
        yield f"governed median {s['governed']['median_us']:.1f} us"
        yield f"direct   median {s['direct']['median_us']:.1f} us"
        yield f"overhead ratio  {s['overhead_ratio']:.2f}"

    _emit(obj, args.human, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectgov",
        description="Structural effect governance: run, audit and analyze governed workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario under a policy, writing the chain")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument(
        "--policy",
        help="policy JSON file (default: the scenario's own 'policy' reference)",
    )
    run_p.add_argument("--out", required=True, help="output chain file (JSON Lines)")
    run_p.add_argument("--human", action="store_true", help="text summary instead of JSON")
    run_p.set_defaults(fn=_cmd_run)

    verify_p = sub.add_parser("verify", help="verify a chain file end to end")
    verify_p.add_argument("chain", help="chain file (JSON Lines)")
    verify_p.add_argument("--human", action="store_true")
    verify_p.set_defaults(fn=_cmd_verify)

    regions_p = sub.add_parser(
        "regions", help="partition capabilities into governed / ungoverned / theater"
    )
    regions_p.add_argument("--capabilities", required=True, help="capability manifest JSON")
    regions_p.add_argument("--policy", required=True, help="policy JSON file")
    regions_p.add_argument("--human", action="store_true")
    regions_p.set_defaults(fn=_cmd_regions)

    sim_p = sub.add_parser(
        "simulate-monitor", help="analytic and Monte Carlo monitoring-gap probability"
    )
    sim_p.add_argument("--coverage", type=float, required=True)
    sim_p.add_argument("--actions", type=int, required=True)
    sim_p.add_argument("--trials", type=int, default=100_000)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--human", action="store_true")
    sim_p.set_defaults(fn=_cmd_simulate_monitor)

    bench_p = sub.add_parser("bench", help="latency benchmarks, governed vs direct")
    bench_p.add_argument("--iters", type=int, default=50)
    bench_p.add_argument("--warmup", type=int, default=5)
    bench_p.add_argument("--out", help="also write the report JSON to this path")
    bench_p.add_argument("--human", action="store_true")
    bench_p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
