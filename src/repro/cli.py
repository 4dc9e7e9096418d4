"""Command-line interface.

Usage (installed as ``repro-sim``, or ``python -m repro.cli``):

    repro-sim run tpc-b --technique emesti+lvp --scale 0.5 --seed 1
    repro-sim run locks --technique emesti --trace /tmp/t.jsonl
    repro-sim report /tmp/t.jsonl --chrome /tmp/t.chrome.json
    repro-sim service top --port 8642
    repro-sim service postmortem flight.json
    repro-sim experiment figure7 --scale 0.6 --workers 4
    repro-sim bench --compare BENCH_matrix.json
    repro-sim check --protocol emesti --interconnect both
    repro-sim lint --format json
    repro-sim list
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import logging
import os
import pstats
import sys
from collections import defaultdict

from repro.coherence.protocol import DEFAULT_PROTOCOLS, PROTOCOLS
from repro.common.config import InterconnectKind, scaled_config
from repro.common.errors import ConfigError
from repro.experiments.runner import cell_config, summarize
from repro.obs.report import load_trace, render_report, summarize_trace
from repro.obs.tracer import TraceFilter, Tracer, chrome_document
from repro.system.system import System
from repro.system.techniques import ALL_TECHNIQUES
from repro.workloads.registry import BENCHMARKS, EXTRA_BENCHMARKS, get_benchmark

EXPERIMENTS = (
    "table2", "figure6", "figure7", "figure8", "sle_idioms", "ablations",
    "trace_vs_exec", "scaling", "directory_study",
)


def cmd_list(_args) -> int:
    """Handle ``repro-sim list``."""
    print("benchmarks: ", ", ".join(list(BENCHMARKS) + sorted(EXTRA_BENCHMARKS)))
    print("techniques: ", ", ".join(ALL_TECHNIQUES))
    print("experiments:", ", ".join(EXPERIMENTS))
    return 0


def _make_tracer(args) -> Tracer | None:
    """Build the Tracer requested by ``run`` flags, or None."""
    if not args.trace:
        return None
    filt = TraceFilter.parse(args.trace_filter) if args.trace_filter else None
    # Fail on an unwritable path now, not after a long simulation.
    with open(args.trace, "w"):
        pass
    # Attaching the sink up front (rather than saving at the end) is
    # what makes traces crash-safe: the tracer flushes what it has on
    # exception and at interpreter exit.
    return Tracer(filter=filt, ring=args.trace_ring, path=args.trace)


def _profile_report(profile, top: int = 20) -> str:
    """``run --profile``'s report: self time per ``repro`` package, then
    pstats' ``top`` functions by self time.

    cProfile bills each function's own time to that function, so a
    package's row is the work its code did, whoever scheduled it.  A
    function's package is the ``repro`` subpackage its file lives in;
    builtins and the standard library share the ``other`` row.
    """
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "")
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    seconds: dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, self_s, _cum, _callers) in stats.stats.items():
        package = "other"
        if filename.startswith(root):
            parts = filename[len(root):].split(os.sep)
            package = "repro." + parts[0] if len(parts) > 1 else "repro"
        seconds[package] += self_s
    total = sum(seconds.values()) or 1e-12
    lines = [f"{'package':<18s} {'self_s':>8s} {'share':>6s}"]
    for package, self_s in sorted(seconds.items(), key=lambda row: -row[1]):
        lines.append(f"{package:<18s} {self_s:>8.3f} {100 * self_s / total:>5.1f}%")
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return "\n".join(lines) + "\n" + out.getvalue().rstrip()


def cmd_run(args) -> int:
    """Handle ``repro-sim run``: simulate the stored cell's machine."""
    config = cell_config(scaled_config(n_procs=args.procs), args.technique)
    workload = get_benchmark(args.benchmark, scale=args.scale)
    tracer = _make_tracer(args)
    if args.metrics:
        # Fail on an unwritable path now, not after a long simulation.
        with open(args.metrics, "w"):
            pass
    system = System(
        config, workload, seed=args.seed, tracer=tracer,
        check_invariants=args.check_invariants,
    )
    profile = cProfile.Profile() if args.profile else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            # The context manager flushes a partial trace if the run dies.
            stack.enter_context(tracer)
        if profile is not None:
            stack.enter_context(profile)
        result = system.run(heartbeat=args.heartbeat)
    summary = summarize(result)
    width = max(len(k) for k in summary)
    for key, value in summary.items():
        print(f"{key.ljust(width)} : {value}")
    if tracer is not None:
        print(f"trace: {len(tracer.events)} events -> {args.trace} "
              f"({tracer.filtered} filtered, "
              f"{tracer.overwritten} overwritten)")
    if args.metrics:
        from pathlib import Path

        metrics = result.metrics
        if args.metrics_format == "prom":
            text = metrics.to_prometheus()
        else:
            text = json.dumps(metrics.to_json(), indent=1, sort_keys=True) + "\n"
        Path(args.metrics).write_text(text)
        n_series = sum(1 for f in metrics.families() for _ in f.series())
        print(f"metrics: {n_series} series -> {args.metrics} "
              f"({args.metrics_format})")
    if profile is not None:
        print(_profile_report(profile))
    return 0


def cmd_report(args) -> int:
    """Handle ``repro-sim report``."""
    load = load_trace(args.trace)
    if load.skipped:
        print(f"repro-sim: warning: skipped {load.skipped} malformed "
              f"event(s) in {args.trace}", file=sys.stderr)
    if args.chrome:
        from pathlib import Path

        doc = chrome_document(load.events)
        Path(args.chrome).write_text(json.dumps(doc) + "\n")
        print(f"chrome trace: {len(doc['traceEvents'])} records -> "
              f"{args.chrome}")
    print(render_report(
        summarize_trace(load.events, top=args.top, dropped=load.dropped)
    ))
    return 0


def cmd_explain(args) -> int:
    """Handle ``repro-sim explain`` (miss provenance analysis).

    Live mode runs the cell on the stored cell's machine, as ``run``
    does, with tracing + metrics and *gates*: exit 1 when the
    trace/metrics reconciliation mismatches or fewer than 95% of
    communication misses get a provenance class.  Offline mode
    (``--trace``) analyzes a saved trace; with no metrics registry to
    check against, it reports without gating.
    """
    from repro.obs.provenance import (
        analyze_events,
        line_chain,
        reconcile,
        reconciliation_ok,
        render_provenance,
    )

    overwritten = None  # --trace-ring's overwrites, or the --trace trailer's
    if args.trace:
        load = load_trace(args.trace)
        if load.skipped:
            print(f"repro-sim: warning: skipped {load.skipped} malformed "
                  f"event(s) in {args.trace}", file=sys.stderr)
        events = load.events
        metrics = None
        overwritten = load.dropped
    else:
        if args.benchmark is None:
            print("repro-sim: error: explain needs a benchmark to run "
                  "(or --trace PATH to analyze offline)", file=sys.stderr)
            return 2
        config = cell_config(scaled_config(n_procs=args.procs), args.technique)
        workload = get_benchmark(args.benchmark, scale=args.scale)
        tracer = Tracer(ring=args.trace_ring)
        if args.save_trace:
            with open(args.save_trace, "w"):
                pass
            tracer.attach_sink(args.save_trace)
        system = System(config, workload, seed=args.seed, tracer=tracer)
        with tracer:
            result = system.run()
        metrics = result.metrics
        events = tracer.events
        if args.trace_ring is not None:
            overwritten = tracer.overwritten
    report = analyze_events(events)
    rows = reconcile(report, metrics) if metrics is not None else None
    gated = metrics is not None
    ok = (not gated) or (
        reconciliation_ok(rows) and report.attribution_rate >= 0.95
    )
    if args.line is not None:
        base = int(args.line, 0)
        chain = line_chain(events, base, limit=args.top * 10)
        if args.format == "json":
            print(json.dumps({"line": hex(base), "chain": chain}, indent=1))
        else:
            print(f"== line {base:#x}: {len(chain)} event(s) ==")
            for entry in chain:
                print(f"  {json.dumps(entry, sort_keys=True)}")
        return 0
    if args.format == "json":
        doc = report.to_json()
        doc["reconciliation"] = rows
        doc["ok"] = ok
        if overwritten is not None:
            doc["overwritten"] = overwritten
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(render_provenance(report, rows, top=args.top))
        ring = "" if overwritten is None else f", {overwritten} overwritten"
        if gated:
            print(f"\nresult: {'ok' if ok else 'FAIL'} "
                  f"(attribution {report.attribution_rate:.1%}, "
                  f"reconciliation "
                  f"{'exact' if reconciliation_ok(rows) else 'MISMATCH'}{ring})")
        else:
            print(f"\ntrace: {len(events)} events{ring}")
    return 0 if ok else 1


def cmd_check(args) -> int:
    """Handle ``repro-sim check`` (protocol verification)."""
    from repro.fuzz.report import render_mutation
    from repro.verify.checker import ModelChecker
    from repro.verify.litmus import LitmusRunner
    from repro.verify.model import AbstractMachine, ProtocolSpec
    from repro.verify.mutations import inapplicable, mutate, mutation_record
    from repro.verify.replay import ConcreteReplayer
    from repro.verify.report import render_check, render_litmus, render_replay

    for flag, bound in (("--depth", args.depth),
                        ("--max-states", args.max_states)):
        if bound is not None and bound < 1:
            print(f"repro-sim: error: {flag} must be >= 1", file=sys.stderr)
            return 2
    protocols = list(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    interconnects = {
        "bus": (InterconnectKind.BUS,),
        "directory": (InterconnectKind.DIRECTORY,),
        "both": (InterconnectKind.BUS, InterconnectKind.DIRECTORY),
    }[args.interconnect]
    combos = [
        (ProtocolSpec(name), interconnect)
        for name in protocols for interconnect in interconnects
    ]
    if args.mutate:
        applicable = []
        for spec, interconnect in combos:
            try:
                why = inapplicable(spec.make_logic(), args.mutate, interconnect)
            except ValueError as exc:
                print(f"repro-sim: error: {exc}", file=sys.stderr)
                return 2
            if why is None:
                applicable.append((spec, interconnect))
            else:
                print(f"repro-sim: skipping the {interconnect.value} run "
                      f"of {spec.name}: {why}", file=sys.stderr)
        if not applicable:
            print(f"repro-sim: error: mutation {args.mutate!r} applies to "
                  f"none of the requested runs", file=sys.stderr)
            return 2
        combos = applicable
    text = args.format == "text"
    runs = []
    failed = False
    for spec, interconnect in combos:
        logic = spec.make_logic()
        if args.mutate:
            logic = mutate(logic, args.mutate)
        machine = AbstractMachine(
            logic, n_nodes=args.nodes, interconnect=interconnect
        )
        result = ModelChecker(
            machine, max_depth=args.depth, max_states=args.max_states
        ).run()
        run = result.to_json()
        if args.mutate:
            run["mutation"] = mutation_record(
                args.mutate, spec.name, result
            )
            run["mutation"]["rows"] = sorted(
                ":".join(entry["row"])
                for entry in result.coverage.get("exercised", ())
            )
            if text:
                print(render_mutation(run["mutation"]))
            if result.ok:
                # An undetected seeded bug is itself a failure of
                # the verification loop (a mutation escape).
                failed = True
        if text:
            print(render_check(result))
        # Coverage gaps only count against a complete clean run;
        # a violation (or a bounded search) stops exploration early.
        # The table audit is static, so its findings always count.
        gaps = result.ok and result.complete and (
            result.coverage.get("missing")
            or result.coverage.get("unexpected")
        )
        audit = result.coverage["audit"]
        if result.violations or gaps or audit:
            failed = True
        if result.violations and not args.no_replay:
            replayer = ConcreteReplayer(
                spec, n_nodes=args.nodes, interconnect=interconnect,
                mutate=args.mutate,
            )
            trace = result.violations[0].trace
            outcome = replayer.replay(trace)
            run["replay"] = outcome.to_json()
            if text:
                print(render_replay(outcome, len(trace)))
        crashed = any(finding["kind"] == "crash" for finding in audit)
        if not args.no_litmus and not args.mutate and not crashed:
            litmus = LitmusRunner(spec, interconnect).run_all()
            run["litmus"] = [r.to_json() for r in litmus]
            if any(not r.ok for r in litmus):
                failed = True
            if text:
                print(render_litmus(litmus))
        runs.append(run)
    ok = not failed
    if text:
        print("result:", "ok" if ok else "FAIL")
    else:
        print(json.dumps({"ok": ok, "runs": runs}, indent=1))
    return 0 if ok else 1


def cmd_lint(args) -> int:
    """Handle ``repro-sim lint`` (static analysis)."""
    from repro.lint import ALL_RULES, run_lint
    from repro.lint.report import render_json, render_text

    if args.list_rules:
        for rule_id, cls in sorted(ALL_RULES.items()):
            print(f"{rule_id}  {cls.title}")
        return 0
    try:
        result = run_lint(paths=args.paths or None, rules=args.rule)
    except ValueError as exc:  # a --rule that matches no rule
        print(f"repro-sim: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, stats=args.stats))
    return 0 if result.clean else 1


def cmd_experiment(args) -> int:
    """Handle ``repro-sim experiment``."""
    import importlib
    import inspect

    module = importlib.import_module(f"repro.experiments.{args.name}")
    kwargs = {"scale": args.scale}
    if "workers" in inspect.signature(module.run).parameters:
        kwargs["workers"] = args.workers
    elif args.workers:
        print(f"repro-sim: note: {args.name} does not support --workers; "
              f"running serially", file=sys.stderr)
    print(module.run(**kwargs))
    return 0


def cmd_bench(args) -> int:
    """Handle ``repro-sim bench`` (the exact cycles/committed gate)."""
    from repro.experiments import bench

    baseline = None
    if args.compare:
        # Load before running: --output may point at the baseline file.
        with open(args.compare) as handle:
            baseline = json.load(handle)
        if not isinstance(baseline, dict):
            raise ConfigError(f"{args.compare}: not a bench report")
    report = bench.run(output=args.output, results_dir=args.results_dir)
    print(bench.render(report))
    problems = bench.compare(report, baseline)
    if baseline is not None:
        print(f"\ncompare vs {args.compare}: "
              + (f"{len(problems)} difference(s)" if problems else "identical"))
    for line in problems:
        print(f"  {line}")
    if problems:
        print("repro-sim: error: bench gate failed (regenerate the baseline "
              "with `repro-sim bench` only for an intended model change)",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro-sim serve`` (the simulation service)."""
    import asyncio
    import signal

    from repro.service.api import Service

    # A server launched as a background job from a non-interactive
    # shell (``nohup repro-sim serve ... &``, as the CI smoke does)
    # inherits SIGINT set to SIG_IGN — the shell ignores it for
    # async commands without job control, and Python honors an
    # inherited SIG_IGN.  Restore the default handler so
    # ``kill -INT`` always reaches the graceful-shutdown path that
    # writes the event log and the final flight file.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    async def _serve() -> int:
        service = Service(
            args.root, workers=args.workers, flight_path=args.flight,
            telemetry_interval=args.telemetry_interval,
        )
        host, port = await service.start(host=args.host, port=args.port)
        print(f"repro-sim service on http://{host}:{port} "
              f"({args.workers} workers, state in {args.root})")
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()
            if args.event_log:
                from pathlib import Path

                Path(args.event_log).write_text(service.events.to_ndjson())
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def cmd_service(args) -> int:
    """Handle ``repro-sim service`` (live top / crash postmortem)."""
    if args.service_command == "top":
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.top import run_top

        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        try:
            shown = run_top(
                client, interval=args.interval, iterations=args.iterations,
                clear=not args.no_clear,
            )
        except (ServiceError, ConnectionError, OSError) as exc:
            print(f"repro-sim: error: {exc}", file=sys.stderr)
            return 1
        return 0 if shown else 1
    if args.service_command == "postmortem":
        from repro.service.top import load_telemetry, render_postmortem

        try:
            doc = load_telemetry(args.path)
        except (OSError, ValueError) as exc:
            print(f"repro-sim: error: {exc}", file=sys.stderr)
            return 1
        print(render_postmortem(doc, tail=args.tail))
        return 0
    raise AssertionError(f"unknown service command {args.service_command!r}")


def cmd_submit(args) -> int:
    """Handle ``repro-sim submit`` (client side of the service)."""
    from repro.service.client import ServiceClient, ServiceError

    if args.spec:
        with open(args.spec) as handle:
            spec = json.load(handle)
    else:
        if not args.benchmarks:
            print("repro-sim: error: give benchmarks (or --spec FILE)",
                  file=sys.stderr)
            return 2
        spec = {
            "benchmarks": args.benchmarks,
            "techniques": args.techniques,
            "seeds": args.seeds,
            "scale": args.scale,
            "priority": args.priority,
        }
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        accepted = client.submit(spec)
        print(f"job {accepted['job']} accepted "
              f"({len(accepted['cells'])} cells)")
        if not args.wait:
            return 0
        for record in client.follow(accepted["job"]):
            if args.follow:
                print(json.dumps(record, sort_keys=True))
        job = client.job(accepted["job"])
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"repro-sim: error: {exc}", file=sys.stderr)
        return 1
    print(f"job {job['id']}: {job['status']}")
    if job["status"] != "done":
        return 1
    for fingerprint in job["cells"]:
        doc = client.result(fingerprint)
        summary = doc["summary"]
        print(f"  {doc['benchmark']:>10s}/{doc['technique']:<12s} "
              f"seed={doc['seed']} cycles={summary['cycles']:.0f} "
              f"ipc={summary['ipc']:.2f}  [{fingerprint}]")
    return 0


def cmd_fuzz(args) -> int:
    """Handle ``repro-sim fuzz`` (coverage-guided protocol fuzzing)."""
    from repro.fuzz.campaign import FuzzOptions, run_campaign
    from repro.fuzz.report import render_fuzz

    if args.budget < 1:
        print("repro-sim: error: --budget must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("repro-sim: error: --workers must be >= 0", file=sys.stderr)
        return 2
    options = FuzzOptions(
        seed=args.seed,
        budget=args.budget,
        protocols=tuple(dict.fromkeys(args.protocols)),
        interconnect=args.interconnect,
        workers=args.workers,
    )
    report = run_campaign(options)
    doc = report.to_json()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.format == "text":
        print(render_fuzz(doc))
    else:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return 0 if doc["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Temporal-silence reproduction simulator (ISPASS 2005)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level progress logging",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="warnings and errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, techniques, experiments")

    run_p = sub.add_parser(
        "run", help="run one benchmark/technique cell",
        description=(
            "Simulate one cell on the machine the experiments and the "
            "result store use, so the summary printed is the stored "
            "cell's."
        ),
    )
    run_p.add_argument(
        "benchmark", choices=sorted(BENCHMARKS) + sorted(EXTRA_BENCHMARKS)
    )
    run_p.add_argument("--technique", default="base")
    run_p.add_argument("--scale", type=float, default=0.5)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--procs", type=int, default=4)
    run_p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured event trace (span-event JSONL) to PATH; "
             "'report PATH --chrome OUT' exports it for Perfetto",
    )
    run_p.add_argument(
        "--trace-filter", metavar="SPEC", default=None,
        help="only record matching events, e.g. 'kind=validate|bus.grant,node=0-3'",
    )
    run_p.add_argument(
        "--trace-ring", metavar="N", type=int, default=None,
        help="keep only the last N events (bounded-memory ring buffer)",
    )
    run_p.add_argument(
        "--heartbeat", metavar="CYCLES", type=int, default=0,
        help="log a progress heartbeat every CYCLES simulated cycles",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="profile the run with cProfile: self time per repro "
             "package, then the 20 functions with the most self time",
    )
    run_p.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="export the run's metric series (counters, gauges, "
             "histograms with labels) to PATH",
    )
    run_p.add_argument(
        "--metrics-format", choices=("json", "prom"), default="json",
        help="metrics output format (prom is Prometheus text exposition)",
    )
    run_p.add_argument(
        "--check-invariants", action="store_true",
        help="run the coherence invariant checker on every interconnect grant "
             "plus an end-of-run sweep (fails fast on protocol bugs)",
    )

    report_p = sub.add_parser("report", help="summarize a saved trace")
    report_p.add_argument("trace", help="trace file (span-event JSONL)")
    report_p.add_argument(
        "--top", type=int, default=10,
        help="rows per ranking (hot lines, nodes)",
    )
    report_p.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also convert the trace to Chrome trace-event JSON at "
             "PATH (loads in Perfetto; works on per-job service "
             "traces from GET /jobs/{id}/trace)",
    )

    explain_p = sub.add_parser(
        "explain",
        help="attribute every communication miss to a provenance class",
        description=(
            "Run one cell with spans + metrics on the stored cell's "
            "machine (or analyze a saved trace with --trace), "
            "reconstruct per-line coherence lifetimes, attribute "
            "every communication miss to a "
            "temporal-silence provenance class, account every "
            "validate's fate, and reconcile the trace totals exactly "
            "against the metrics registry.  Live runs exit 1 on a "
            "reconciliation mismatch or <95%% attribution."
        ),
    )
    explain_p.add_argument(
        "benchmark", nargs="?", default=None,
        choices=sorted(BENCHMARKS) + sorted(EXTRA_BENCHMARKS),
        help="benchmark to run (omit when using --trace)",
    )
    explain_p.add_argument("--technique", default="emesti")
    explain_p.add_argument("--scale", type=float, default=0.5)
    explain_p.add_argument("--seed", type=int, default=1)
    explain_p.add_argument("--procs", type=int, default=4)
    explain_p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="analyze this saved trace instead of running (no "
             "metrics reconciliation offline)",
    )
    explain_p.add_argument(
        "--save-trace", metavar="PATH", default=None,
        help="also write the run's event trace (span-event JSONL) to PATH",
    )
    explain_p.add_argument(
        "--trace-ring", metavar="N", type=int, default=None,
        help="bound the in-memory event buffer to the last N events",
    )
    explain_p.add_argument(
        "--line", metavar="ADDR", default=None,
        help="drill into one line's event chain (hex, e.g. 0x10080)",
    )
    explain_p.add_argument(
        "--top", type=int, default=10,
        help="rows in the offender-line table",
    )
    explain_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the full report + reconciliation for CI",
    )

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument("name", choices=EXPERIMENTS)
    exp_p.add_argument("--scale", type=float, default=0.5)
    exp_p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan independent simulation cells out over N worker "
             "processes (results are identical to a serial run; see "
             "docs/performance.md)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="run the exact cycles/committed gate and write BENCH_matrix.json",
        description=(
            "Run a fixed mini-matrix serially and in a worker pool, check "
            "that both produce identical summaries, and write each "
            "cell's cycles/committed.  With --compare, exit 1 on any "
            "difference from the baseline report.  Speed is measured "
            "by perfbench, not here."
        ),
    )
    bench_p.add_argument(
        "--output", default="BENCH_matrix.json", metavar="PATH",
        help="report path (default: BENCH_matrix.json in the cwd)",
    )
    bench_p.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="hold this run to a baseline bench report; exit 1 on any "
             "difference in fingerprint, scale, cell set or a cell's "
             "cycles/committed",
    )
    bench_p.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="keep the serial pass's cells (one <fingerprint>.json "
             "each) in DIR (default: a throwaway tempdir)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation service (async HTTP job API)",
        description=(
            "Expose the experiment matrix as a long-running HTTP/JSON "
            "service: POST /jobs accepts an experiment spec, a durable "
            "queue explodes it into fingerprint-identified cells, and "
            "a warm worker shard runs them (serving cached cells "
            "without simulation).  See docs/service.md."
        ),
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks an ephemeral port)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker tasks in the shard (each leases one cell at a time)",
    )
    serve_p.add_argument(
        "--root", default="service-state", metavar="DIR",
        help="durable state: queue (queue/) + result store (results/)",
    )
    serve_p.add_argument(
        "--event-log", default=None, metavar="PATH",
        help="write the full NDJSON event log here on shutdown",
    )
    serve_p.add_argument(
        "--flight", default=None, metavar="PATH",
        help="rewrite the GET /telemetry document, with the newest 2048 "
             "events, to PATH every sampler tick for crash postmortems; "
             "render it with `repro-sim service postmortem PATH`",
    )
    serve_p.add_argument(
        "--telemetry-interval", type=float, default=1.0, metavar="SECONDS",
        help="vitals sampling cadence for /telemetry and the sampled "
             "gauges (0 disables the sampler)",
    )

    service_p = sub.add_parser(
        "service",
        help="service observability: live top, crash postmortem",
        description=(
            "Client-side observability for a `repro-sim serve` "
            "instance: `top` renders a refresh-loop terminal dashboard "
            "from GET /telemetry; `postmortem` renders the same document "
            "as `serve --flight PATH` left it on disk, with each job's "
            "last known state."
        ),
    )
    service_sub = service_p.add_subparsers(
        dest="service_command", required=True,
    )
    top_p = service_sub.add_parser(
        "top", help="live terminal dashboard over GET /telemetry",
    )
    top_p.add_argument("--host", default="127.0.0.1")
    top_p.add_argument("--port", type=int, default=8642)
    top_p.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh cadence in seconds",
    )
    top_p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N refreshes then exit (default: until Ctrl-C)",
    )
    top_p.add_argument(
        "--timeout", type=float, default=10.0,
        help="client socket timeout in seconds",
    )
    top_p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (CI logs)",
    )
    post_p = service_sub.add_parser(
        "postmortem", help="render a flight file (serve --flight)",
    )
    post_p.add_argument(
        "path", help="telemetry document written by serve --flight",
    )
    post_p.add_argument(
        "--tail", type=int, default=15,
        help="newest events to show",
    )

    submit_p = sub.add_parser(
        "submit",
        help="submit an experiment spec to a running service",
        description=(
            "POST a (benchmarks x techniques x seeds) spec to a "
            "`repro-sim serve` instance, optionally follow the job's "
            "named event stream, and print the per-cell results."
        ),
    )
    submit_p.add_argument(
        "benchmarks", nargs="*",
        help="benchmark names (or use --spec FILE)",
    )
    submit_p.add_argument(
        "--techniques", nargs="+", default=["base"], metavar="T",
    )
    submit_p.add_argument(
        "--seeds", nargs="+", type=int, default=[1], metavar="N",
    )
    submit_p.add_argument("--scale", type=float, default=0.1)
    submit_p.add_argument(
        "--priority", type=int, default=0,
        help="higher leases first",
    )
    submit_p.add_argument(
        "--spec", default=None, metavar="FILE",
        help="read the whole job spec from a JSON file instead",
    )
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=8642)
    submit_p.add_argument(
        "--timeout", type=float, default=600.0,
        help="client socket timeout in seconds",
    )
    submit_p.add_argument(
        "--no-wait", dest="wait", action="store_false",
        help="return after acceptance instead of following to completion",
    )
    submit_p.add_argument(
        "--follow", action="store_true",
        help="print each streamed NDJSON event while waiting",
    )

    check_p = sub.add_parser(
        "check",
        help="model-check the coherence protocols exhaustively",
        description=(
            "Audit each protocol table statically (every row transitions "
            "or raises by design, the raising rows are the ones the "
            "invariants forbid, E-MESTI differs from MOESTI only in its "
            "Validate_Shared rows); then explore every reachable state "
            "of a small abstract system (N nodes, one line, two data "
            "values) driven by the real protocol tables; check SWMR, the "
            "data-value invariant, and the temporal-silence discipline; "
            "run the litmus suite; replay any counterexample on the "
            "concrete simulator.  Exit 0 when clean, 1 on an audit "
            "finding, a violation or a coverage gap."
        ),
    )
    check_p.add_argument(
        "--protocol", default="all", choices=(*PROTOCOLS, "all"),
    )
    check_p.add_argument(
        "--interconnect", default="both",
        choices=("bus", "directory", "both"),
    )
    check_p.add_argument(
        "--nodes", type=int, default=3, choices=tuple(range(2, 17)),
        metavar="N",
        help="abstract system size, 2-16 (state space grows steeply)",
    )
    check_p.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="bound exploration depth (default: exhaustive)",
    )
    check_p.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="bound explored state count (default: exhaustive)",
    )
    check_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the full results for CI archiving",
    )
    check_p.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="seed a known protocol bug (see repro.verify.mutations) "
             "and demonstrate the checker catching it",
    )
    check_p.add_argument(
        "--no-litmus", action="store_true",
        help="skip the litmus-test suite",
    )
    check_p.add_argument(
        "--no-replay", action="store_true",
        help="do not replay counterexamples on the concrete system",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="coverage-guided protocol fuzzing campaign",
        description=(
            "Generate randomized litmus tests with allowed-outcome "
            "oracles derived from the reference-protocol enumeration, "
            "run each workload differentially across protocols "
            "(agreement per the data-value invariant), and interleave "
            "protocol-table mutation checks — all guided by "
            "transition-table coverage, with failing inputs minimized "
            "and replayed on the concrete simulator.  Deterministic "
            "per --seed and --budget, serial or parallel.  Exit 0 when "
            "clean, 1 on any finding, 2 on bad arguments."
        ),
    )
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="total iterations (every 4th checks a protocol mutant)",
    )
    fuzz_p.add_argument(
        "--protocols", nargs="+", default=list(DEFAULT_PROTOCOLS),
        choices=tuple(PROTOCOLS), metavar="P",
        help=f"protocols run differentially (default: "
             f"{' '.join(DEFAULT_PROTOCOLS)})",
    )
    fuzz_p.add_argument(
        "--interconnect", default="bus", choices=("bus", "directory"),
    )
    fuzz_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="process-pool size (0 = serial; the report is identical "
             "either way)",
    )
    fuzz_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the full campaign report",
    )
    fuzz_p.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="static determinism/discipline analysis (simlint)",
        description=(
            "Run the simlint AST rules (SL001-SL009) and the "
            "whole-program concurrency/contract analysis (SL201-SL205) "
            "over the sources; the protocol tables are audited by "
            "`repro-sim check`.  Every finding is reported: fix it, or "
            "excuse it in the source (docs/linting.md).  Exit 0 when "
            "clean, 1 on findings, 2 on bad arguments."
        ),
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files/directories to scan (default: the repro package)",
    )
    lint_p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the findings for CI archiving",
    )
    lint_p.add_argument(
        "--rule", action="append", metavar="ID",
        help="only run the rules whose id is or starts with ID, e.g. "
             "--rule SL2 for the whole-program layer (repeatable)",
    )
    lint_p.add_argument(
        "--stats", action="store_true",
        help="append an analysis summary (findings per rule, call-graph "
             "size) to the text report",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def _configure_logging(args) -> None:
    """Map -q/-v to a root logging level (idempotent across calls)."""
    if args.quiet:
        level = logging.WARNING
    elif args.verbose:
        level = logging.DEBUG
    else:
        level = logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "report": cmd_report,
        "explain": cmd_explain,
        "experiment": cmd_experiment,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "service": cmd_service,
        "submit": cmd_submit,
        "check": cmd_check,
        "fuzz": cmd_fuzz,
        "lint": cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"repro-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
