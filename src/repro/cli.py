"""Command-line interface: regenerate the paper's experiments.

::

    python -m repro fig3  --sizes 6000,8000,10000
    python -m repro fig4  --policy gang --stats --trace fig4.trace.json
    python -m repro eman
    python -m repro opportunistic
    python -m repro describe path/to/grid.dml
    python -m repro bench --compare
    python -m repro faults run --seed 0 --mtbf 300,900 --json
    python -m repro faults report campaign.json
    python -m repro metasched run --users 6 --arrival-rate 0.01 --json
    python -m repro metasched run --n-hosts 64 --json
    python -m repro metasched report stream.json
    python -m repro soak run --minutes 2 --seed 7 --json
    python -m repro soak replay tests/soak/reproducers/foo.json
    python -m repro trace diff a.trace.json b.trace.json
    python -m repro lint --format json --baseline simlint-baseline.json

Every experiment subcommand accepts ``--trace PATH`` to export the
run's event timeline as Chrome trace-event JSON (load it in Perfetto
or ``chrome://tracing``).  ``repro trace`` inspects such files:
``validate`` checks the schema, ``summary`` prints per-host
utilization and the violation timeline, ``diff`` pinpoints the first
divergent event between two traces (exit 1 when they diverge).
``repro lint`` runs the determinism linter (``repro.simlint``) over
the tree — see DESIGN.md §5 for the rules and suppression syntax.

Every experiment subcommand also accepts ``--seed N`` (default 0): the
run's randomness, if it has any, derives from ``RngRegistry(N)``, and
two invocations with equal arguments produce identical output —
``--json`` payloads byte-for-byte (each carries ``schema_version``).

Exit codes: 0 success, 1 experiment/trace/lint failure, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import __version__
from .experiments.eman_demo import run_eman_demo
from .experiments.faults_campaign import campaign_tables, run_faults_campaign
from .experiments.fig3_qr import DEFAULT_SIZES, run_fig3
from .experiments.fig4_swap import run_fig4
from .experiments.metasched_stream import metasched_tables, run_metasched
from .experiments.opportunistic import run_opportunistic
from .experiments.scheduler_bench import run_scheduler_bench
from .experiments.soak import run_soak, soak_tables
from .experiments.substrate import run_substrate_bench
from .experiments.common import JSON_SCHEMA_VERSION, format_table
from .faults.campaign import CampaignSpec
from .microgrid.dml import parse_grid
from .oracles import ORACLES, compare_case
from .rescheduling.swapping import SWAP_POLICIES
from .sim.kernel import Simulator
from .trace import (
    Tracer,
    diff_files,
    format_divergence,
    load_trace_file,
    summarize,
    validate_chrome,
    write_chrome,
)

__all__ = ["main", "build_parser"]


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export the run's event timeline as Chrome trace-event JSON")


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0,
        help="experiment seed (default 0); all driver randomness derives "
             "from it and equal seeds give identical output")


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the deterministic report JSON on stdout")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report JSON to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GrADS scheduling/rescheduling reproduction (IPPS 2004)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="Figure 3: QR stop/restart sweep")
    fig3.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)),
                      help="comma-separated matrix sizes")
    fig3.add_argument("--nb", type=int, default=200, help="panel width")
    fig3.add_argument("--no-decisions", action="store_true",
                      help="skip the default-mode decision replay")
    _add_seed_option(fig3)
    _add_trace_option(fig3)

    fig4 = sub.add_parser("fig4", help="Figure 4: N-body process swapping")
    fig4.add_argument("--policy", default="gang",
                      choices=sorted(SWAP_POLICIES) + ["none"])
    fig4.add_argument("--iterations", type=int, default=120)
    fig4.add_argument("--stats", action="store_true",
                      help="print kernel/substrate perf counters after the run")
    fig4.add_argument("--json", action="store_true",
                      help="emit the result (progress, swaps, counters) "
                           "as JSON on stdout")
    _add_seed_option(fig4)
    _add_trace_option(fig4)

    eman = sub.add_parser("eman", help="Section 3.3: EMAN workflow demo")
    _add_seed_option(eman)
    _add_trace_option(eman)

    opp = sub.add_parser("opportunistic",
                         help="Section 4.1.1: opportunistic rescheduling")
    opp.add_argument("--disable", action="store_true",
                     help="run the baseline without the daemon")
    _add_seed_option(opp)
    _add_trace_option(opp)

    describe = sub.add_parser("describe",
                              help="validate and summarize a DML topology")
    describe.add_argument("path", help="DML file")

    bench = sub.add_parser(
        "bench", help="substrate stress benchmark (64 flows / 32 hosts); "
                      "--scheduler switches to the workflow-scheduler bench")
    bench.add_argument("--transfers", type=int, default=1500,
                       help="total transfers to complete")
    bench.add_argument("--scheduler", action="store_true",
                       help="benchmark the workflow scheduler (EMAN-shaped "
                            "DAG) instead of the substrate")
    bench.add_argument("--tasks", type=int, default=256,
                       help="classesbymra fan-out for --scheduler")
    bench.add_argument("--hosts", type=int, default=32,
                       help="grid size for --scheduler")
    bench.add_argument("--compare", action="store_true",
                       help="run every registered oracle (scheduler, "
                            "allocator, planner) on its cases against the "
                            "fast path and print a table; exit 1 on the "
                            "first divergence")
    bench.add_argument("--json", action="store_true",
                       help="emit the KernelStats counters as JSON on stdout")

    lint = sub.add_parser(
        "lint", help="simulator-discipline static analysis (simlint); "
                     "exit 1 on findings not covered by the baseline")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--format", choices=["text", "json", "github"],
                      default="text",
                      help="report format (default: text); 'github' emits "
                           "GitHub Actions ::error/::warning annotations")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="JSON baseline of grandfathered findings")
    lint.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="accept all current findings into a new "
                           "baseline file and exit 0")
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="comma-separated rule ids to run (e.g. "
                           "SL001,SL003); default: all")
    lint.add_argument("--ignore", metavar="RULES", default=None,
                      help="comma-separated rule ids to skip")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="analyze files with N worker processes "
                           "(default: 1, in-process)")
    lint.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="incremental analysis cache directory (e.g. "
                           ".simlint-cache); only changed files are "
                           "re-analyzed, findings are byte-identical "
                           "warm vs cold")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")

    faults = sub.add_parser(
        "faults", help="fault-injection campaigns (MTBF/MTTR sweep + "
                       "scripted kill scenarios)")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    frun = faults_sub.add_parser(
        "run", help="run a campaign; same seed => byte-identical JSON")
    frun.add_argument("--seed", type=int, default=0,
                      help="campaign seed (per-cell injector seeds are "
                           "derived from it)")
    frun.add_argument("--mtbf", default="400,1200",
                      help="comma-separated MTBF grid (seconds)")
    frun.add_argument("--mttr", default="90",
                      help="comma-separated MTTR grid (seconds)")
    frun.add_argument("--trials", type=int, default=2,
                      help="trials per grid cell")
    frun.add_argument("--n", type=int, default=6000, help="QR matrix size")
    frun.add_argument("--checkpoint-every", type=int, default=5,
                      help="periodic checkpoint interval (panel steps)")
    frun.add_argument("--deadline", type=float, default=20000.0,
                      help="per-trial simulated-time budget (seconds)")
    frun.add_argument("--no-scenarios", action="store_true",
                      help="skip the scripted kill scenarios")
    _add_report_options(frun)
    _add_trace_option(frun)

    freport = faults_sub.add_parser(
        "report", help="render a saved campaign report as tables "
                       "(exit 1 if any scenario failed)")
    freport.add_argument("path", help="report JSON from `faults run --out`")

    meta = sub.add_parser(
        "metasched", help="multi-tenant submission service: serve a "
                          "synthetic job stream with queueing, admission "
                          "control and advance reservations")
    meta_sub = meta.add_subparsers(dest="metasched_command", required=True)

    mrun = meta_sub.add_parser(
        "run", help="serve one stream; same seed => byte-identical JSON "
                    "(exit 1 on any reservation conflict)")
    mrun.add_argument("--users", type=int, default=4,
                      help="number of synthetic tenants (default 4)")
    mrun.add_argument("--arrival-rate", type=float, default=1 / 120.0,
                      help="aggregate Poisson arrival rate in jobs per "
                           "simulated second (default 1/120)")
    mrun.add_argument("--duration", type=float, default=3600.0,
                      help="arrival window in simulated seconds; jobs "
                           "already queued still run to completion")
    mrun.add_argument("--max-jobs", type=int, default=None,
                      help="cap the stream at exactly this many jobs")
    mrun.add_argument("--max-queue", type=int, default=None,
                      help="admission control: reject when this many jobs "
                           "are already queued")
    mrun.add_argument("--max-per-user", type=int, default=None,
                      help="admission control: per-user queued-job quota")
    mrun.add_argument("--n-hosts", type=int, default=None,
                      help="run on a 4-cluster grid of this many hosts "
                           "instead of the 12-host Figure 3 testbed")
    _add_report_options(mrun)
    _add_seed_option(mrun)
    _add_trace_option(mrun)

    mreport = meta_sub.add_parser(
        "report", help="render a saved stream report as tables "
                       "(exit 1 on any reservation conflict)")
    mreport.add_argument("path", help="report JSON from "
                                      "`metasched run --out`")

    soak = sub.add_parser(
        "soak", help="differential soak harness: randomized composite "
                     "scenarios + cross-subsystem invariant auditors")
    soak_sub = soak.add_subparsers(dest="soak_command", required=True)

    srun = soak_sub.add_parser(
        "run", help="run a seeded scenario sweep; same seed => "
                    "byte-identical JSON (exit 1 on any invariant "
                    "violation)")
    srun.add_argument("--scenarios", type=int, default=None,
                      help="number of scenarios to run (default 50)")
    srun.add_argument("--minutes", type=float, default=None,
                      help="time budget; converted to a deterministic "
                           "scenario count, never wall-clock measured")
    srun.add_argument("--shrink", metavar="DIR", default=None,
                      help="delta-debug each violating scenario into a "
                           "minimal replayable reproducer under DIR")
    _add_report_options(srun)
    _add_seed_option(srun)

    sreplay = soak_sub.add_parser(
        "replay", help="re-run one scenario spec JSON (a shrunk "
                       "reproducer or a sampled spec) with full checks "
                       "(exit 1 on any invariant violation)")
    sreplay.add_argument("path", help="scenario spec JSON, e.g. from "
                                      "`soak run --shrink`")
    sreplay.add_argument("--shrink", metavar="PATH", default=None,
                         help="if the replay violates, shrink it further "
                              "and write the minimal spec to PATH")
    sreplay.add_argument("--json", action="store_true",
                         help="emit the scenario report JSON on stdout")

    sreport = soak_sub.add_parser(
        "report", help="render a saved soak report as tables "
                       "(exit 1 if it recorded any violation)")
    sreport.add_argument("path", help="report JSON from `soak run --out`")

    trace = sub.add_parser("trace", help="inspect exported trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tdiff = trace_sub.add_parser(
        "diff", help="first divergent event between two traces "
                     "(exit 1 if they diverge)")
    tdiff.add_argument("a", help="first trace (Chrome JSON or JSONL)")
    tdiff.add_argument("b", help="second trace")

    tsummary = trace_sub.add_parser(
        "summary", help="per-host utilization, violations, critical path")
    tsummary.add_argument("path", help="trace file (Chrome JSON or JSONL)")

    tvalidate = trace_sub.add_parser(
        "validate", help="check a file against the Chrome trace-event schema")
    tvalidate.add_argument("path", help="Chrome trace-event JSON file")
    return parser


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    return Tracer() if getattr(args, "trace", None) else None


def _export(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is not None:
        write_chrome(tracer, args.trace)
        print(f"trace: {len(tracer)} events -> {args.trace}", file=sys.stderr)


def _load_report(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _emit_report(result, args: argparse.Namespace, tables) -> None:
    """Write/print a run's report JSON per ``--out``/``--json``, else
    its tables."""
    payload = result.to_json()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"report -> {args.out}", file=sys.stderr)
    if args.json:
        print(payload)
    else:
        print(tables(result.report()))


def _cmd_fig3(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    except ValueError:
        print(f"bad --sizes value: {args.sizes!r}", file=sys.stderr)
        return 2
    if not sizes:
        print("need at least one size", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    result = run_fig3(sizes=sizes, nb=args.nb,
                      with_decisions=not args.no_decisions, seed=args.seed,
                      tracer=tracer)
    _export(tracer, args)
    print(result.to_table())
    if not args.no_decisions:
        print()
        print(result.decision_table())
        print(f"\ncrossover size: {result.crossover_size()}")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    if args.policy == "none":
        result = run_fig4(n_iterations=args.iterations, with_swapping=False,
                          seed=args.seed, tracer=tracer)
    else:
        result = run_fig4(n_iterations=args.iterations, policy=args.policy,
                          seed=args.seed, tracer=tracer)
    _export(tracer, args)
    if args.json:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "policy": result.policy,
            "finished_at": result.finished_at,
            "swap_times": result.swap_times,
            "swapped_to": result.swapped_to,
            "iterations": (result.progress[-1].iteration
                           if result.progress else 0),
            "stats": result.stats,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(result.to_series())
    print(f"\nswaps: {[round(t, 1) for t in result.swap_times]} "
          f"-> {result.swapped_to}")
    print(f"finished at t={result.finished_at:.1f} s "
          f"(policy: {result.policy})")
    if args.stats:
        print("\nsubstrate counters:")
        for key, value in result.stats.items():
            if isinstance(value, float) and not value.is_integer():
                print(f"  {key}: {value:.3f}")
            else:
                print(f"  {key}: {int(value)}")
    return 0


def _cmd_eman(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    result = run_eman_demo(seed=args.seed, tracer=tracer)
    _export(tracer, args)
    print(result.to_table())
    print(f"\nexecuted {result.chosen_heuristic}: "
          f"{result.measured_makespan:.1f} s on {result.resources_used} "
          f"resources, ISAs {result.isas_used}")
    return 0


def _cmd_opportunistic(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    result = run_opportunistic(enable=not args.disable, seed=args.seed,
                               tracer=tracer)
    _export(tracer, args)
    print(format_table(
        ["A done (s)", "B done (s)", "B migrations", "B final cluster"],
        [[result.a_finished_at, result.b_finished_at,
          result.b_migrations, result.b_final_cluster]],
        title=("opportunistic daemon "
               + ("off" if args.disable else "on"))))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    sim = Simulator()
    grid = parse_grid(text, sim)
    rows = []
    for name, cluster in sorted(grid.clusters.items()):
        rows.append([name, len(cluster), cluster.arch.name,
                     f"{cluster.arch.mflops:.0f}", cluster.arch.isa])
    for name, host in sorted(grid.standalone_hosts.items()):
        rows.append([name, 1, host.arch.name,
                     f"{host.arch.mflops:.0f}", host.arch.isa])
    print(format_table(
        ["cluster/host", "nodes", "arch", "Mflop/s per node", "isa"],
        rows, title=f"{args.path}: {len(grid.all_hosts())} hosts"))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    rows = []
    for name, oracle in ORACLES.items():
        for case in oracle.cases:
            label = " ".join(f"{key}={value}" for key, value in case.items())
            fast_s, ref_s, divergence = compare_case(oracle, case)
            if divergence is not None:
                print(f"ORACLE DIVERGENCE in {name} ({label}): {divergence}",
                      file=sys.stderr)
                return 1
            rows.append([name, label, f"{fast_s:.3f}", f"{ref_s:.3f}",
                         f"{ref_s / fast_s:.2f}x"])
    print(format_table(
        ["subsystem", "case", "fast (s)", "reference (s)", "speedup"], rows,
        title="oracle comparison: every registered case agrees"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.compare:
        return _cmd_bench_compare(args)
    if args.scheduler:
        result = run_scheduler_bench(n_tasks=args.tasks, n_hosts=args.hosts)
        headers = ["engine", "wall (s)", "evals/sec", "rounds", "evals",
                   "memo hits", "makespans (s)"]
        row = [str(result["engine"]), f"{result['wall_seconds']:.3f}",
               f"{result['evaluations_per_sec']:,.0f}",
               f"{result['sched_rounds']}", f"{result['sched_evaluations']}",
               f"{result['sched_memo_hits']}",
               " ".join(f"{result['makespans'][h]:.1f}"
                        for h in result["heuristics"])]
        title = (f"scheduler benchmark: {result['n_tasks']} tasks / "
                 f"{result['n_hosts']} hosts, "
                 f"{'+'.join(result['heuristics'])}")
    else:
        result = run_substrate_bench(total_transfers=args.transfers)
        headers = ["allocator", "wall (s)", "transfers/sec", "events/sec",
                   "events", "reallocs", "stale wakeups", "route hit rate"]
        row = [str(result["allocator"]), f"{result['wall_seconds']:.3f}",
               f"{result['transfers_per_sec']:,.0f}",
               f"{result['events_per_sec']:,.0f}",
               f"{int(result['events_processed'])}",
               f"{int(result['reallocations'])}",
               f"{int(result['wakeups_cancelled'])}",
               f"{result['route_cache_hit_rate']:.3f}"]
        title = (f"substrate benchmark: 64 flows / 32 hosts, "
                 f"{args.transfers} transfers")
    if args.json:
        result["schema_version"] = JSON_SCHEMA_VERSION
        print(json.dumps(result, sort_keys=True))
        return 0
    print(format_table(headers, [row], title=title))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from . import simlint

    if args.list_rules:
        print(simlint.render_rule_table())
        return 0
    paths = args.paths
    if not paths:
        import repro
        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        result = simlint.lint_tree(paths, select=select, ignore=ignore,
                                   jobs=max(1, args.jobs),
                                   cache_dir=args.cache_dir)
    except simlint.UnknownRuleError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    findings = result.findings
    if args.write_baseline:
        simlint.write_baseline(args.write_baseline,
                               simlint.make_baseline(findings))
        print(f"wrote baseline with {len(findings)} finding(s) "
              f"-> {args.write_baseline}", file=sys.stderr)
        return 0
    grandfathered: List[simlint.Finding] = []
    if args.baseline:
        doc = simlint.load_baseline(args.baseline)
        findings, grandfathered = simlint.apply_baseline(findings, doc)
    if args.format == "json":
        print(simlint.render_json(findings, grandfathered))
    elif args.format == "github":
        print(simlint.render_github(findings, len(grandfathered),
                                    display_paths=result.display_paths))
    else:
        print(simlint.render_text(findings, len(grandfathered)))
    return 1 if findings else 0


def _parse_grid_values(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise ValueError(f"bad {flag} value: {text!r}") from None
    if not values:
        raise ValueError(f"need at least one {flag} value")
    return values


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.faults_command == "report":
        report = _load_report(args.path)
        print(campaign_tables(report))
        failed = [s for s in report["scenarios"] if not s["passed"]]
        return 1 if failed else 0
    try:
        spec = CampaignSpec(
            mtbf_grid=_parse_grid_values(args.mtbf, "--mtbf"),
            mttr_grid=_parse_grid_values(args.mttr, "--mttr"),
            trials=args.trials, seed=args.seed, n=args.n,
            checkpoint_every=args.checkpoint_every, deadline=args.deadline)
    except ValueError as exc:
        print(f"repro faults: {exc}", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    result = run_faults_campaign(spec, with_scenarios=not args.no_scenarios,
                                 tracer=tracer)
    _export(tracer, args)
    _emit_report(result, args, campaign_tables)
    failed = [s for s in result.scenarios if not s["passed"]]
    return 1 if failed else 0


def _cmd_metasched(args: argparse.Namespace) -> int:
    if args.metasched_command == "report":
        report = _load_report(args.path)
        print(metasched_tables(report))
        return 1 if report["conflicts"] else 0
    if args.users < 1 or args.arrival_rate <= 0 or args.duration <= 0:
        print("repro metasched: need --users >= 1, --arrival-rate > 0 "
              "and --duration > 0", file=sys.stderr)
        return 2
    if args.n_hosts is not None and args.n_hosts < 4:
        print("repro metasched: --n-hosts must be >= 4 (one host per "
              "cluster)", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    result = run_metasched(
        users=args.users, arrival_rate=args.arrival_rate,
        duration=args.duration, seed=args.seed, max_jobs=args.max_jobs,
        max_queue=args.max_queue, max_per_user=args.max_per_user,
        n_hosts=args.n_hosts, tracer=tracer)
    _export(tracer, args)
    _emit_report(result, args, metasched_tables)
    if result.conflicts:
        for conflict in result.conflicts:
            print(f"RESERVATION CONFLICT: {conflict}", file=sys.stderr)
        return 1
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    if args.soak_command == "report":
        report = _load_report(args.path)
        print(soak_tables(report))
        return 1 if report["summary"]["violations"] else 0
    if args.soak_command == "replay":
        from .soak import (ScenarioSpec, run_with_checks, shrink_scenario,
                           write_reproducer)
        try:
            with open(args.path) as handle:
                spec = ScenarioSpec.from_json(handle.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"repro soak: bad scenario spec: {exc}", file=sys.stderr)
            return 2
        result = run_with_checks(spec)
        if args.json:
            print(json.dumps(result, sort_keys=True))
        else:
            status = "quiesced" if result["quiesced"] else "DID NOT QUIESCE"
            print(f"scenario {spec.index} (seed {spec.seed}): {status}, "
                  f"{len(result['violations'])} violation(s)")
            for violation in result["violations"]:
                print(f"  [{violation['invariant']}] t={violation['time']}: "
                      f"{violation['detail']}")
        if result["violations"] and args.shrink:
            shrunk = shrink_scenario(spec)
            write_reproducer(shrunk.minimal, args.shrink)
            print(f"minimal reproducer ({shrunk.runs} shrink runs, "
                  f"targets {sorted(shrunk.targets)}) -> {args.shrink}",
                  file=sys.stderr)
        return 1 if result["violations"] else 0
    if args.scenarios is not None and args.scenarios < 1:
        print("repro soak: --scenarios must be >= 1", file=sys.stderr)
        return 2
    if args.minutes is not None and args.minutes <= 0:
        print("repro soak: --minutes must be positive", file=sys.stderr)
        return 2
    result = run_soak(seed=args.seed, scenarios=args.scenarios,
                      minutes=args.minutes, shrink_dir=args.shrink)
    _emit_report(result, args, soak_tables)
    return 1 if result.report()["summary"]["violations"] else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "diff":
        divergence = diff_files(args.a, args.b)
        if divergence is None:
            print("traces are identical")
            return 0
        print(format_divergence(divergence, label_a=args.a, label_b=args.b))
        return 1
    if args.trace_command == "summary":
        print(summarize(load_trace_file(args.path)))
        return 0
    if args.trace_command == "validate":
        with open(args.path) as handle:
            obj = json.load(handle)
        problems = validate_chrome(obj)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        n_events = len(obj["traceEvents"])
        print(f"{args.path}: valid Chrome trace ({n_events} events)")
        return 0
    raise ValueError(f"unknown trace command {args.trace_command!r}")


_COMMANDS = {
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "eman": _cmd_eman,
    "opportunistic": _cmd_opportunistic,
    "describe": _cmd_describe,
    "bench": _cmd_bench,
    "faults": _cmd_faults,
    "metasched": _cmd_metasched,
    "soak": _cmd_soak,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BrokenPipeError:
        # Downstream closed the pipe (`repro lint --list-rules | head`);
        # exit quietly the way POSIX filters do, parking stdout on
        # devnull so the interpreter's flush-at-exit stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
