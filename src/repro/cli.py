"""Command-line interface: ``python -m repro <command> ...``.

A thin shell over the engine for the artifacts the repository
serializes (schemas, mappings, instances as JSON; DDL as SQL text):

* ``describe SCHEMA.json`` — human-readable schema report;
* ``validate SCHEMA.json [--instance DATA.json]`` — well-formedness /
  integrity check;
* ``ddl SCHEMA.json`` / ``parse-ddl FILE.sql`` — DDL in both directions;
* ``dot SCHEMA.json`` — Graphviz rendering;
* ``match SOURCE.json TARGET.json [--top-k N]`` — correspondence
  candidates;
* ``modelgen SCHEMA.json METAMODEL [--strategy S]`` — schema
  translation (prints derived schema + mapping);
* ``exchange MAPPING.json DATA.json`` — run the mapping, print the
  target instance as JSON;
* ``sql MAPPING.json`` — the generated query view(s) as SQL;
* ``explain MAPPING.json RELATION [--data DATA.json --analyze]`` —
  the annotated compiled plan for a target-relation query; with
  ``--analyze`` the plan runs and every node reports rows/calls/time;
  ``--no-opt`` shows the heuristic plan and ``--compare`` prints the
  heuristic and cost-based plans side by side with their costs;
* ``trace SCRIPT.py`` — run a Python script under engine tracing and
  print the span tree (``--out`` exports JSONL);
* ``metrics SCRIPT.py`` — run a script and print the collected engine
  metrics (``--format json`` for a machine-readable snapshot,
  ``--format prom`` for Prometheus text exposition);
* ``stats DATA.json`` — the per-relation statistics the cardinality
  estimator consumes (row counts, distincts, null fractions, min/max,
  most-common values);
* ``journal SCRIPT.py`` — run a script with observability enabled and
  print the engine event journal (queries, chase rounds, fallbacks,
  alerts; ``--kind`` filters, ``--out`` exports the same events as
  JSONL);
* ``querylog SCRIPT.py`` — the journal view of the script's ``query``
  events (plan fingerprint, engine, cache hit, wall ms, rows, worst
  divergent node; ``--slow``/``--slow-ms`` keep the slow ones) plus a
  plan-cache footer;
* ``health [SCRIPT.py]`` — evaluate SLO health signals (optionally
  after running a script under observability) and exit nonzero when
  any signal breaches its threshold (``--threshold key=value``
  overrides; exit 0 healthy, 1 alerts, 2 usage error);
* ``top SCRIPT.py`` — run a script while rendering a live terminal
  dashboard (health line, busiest spans, engine counters, journal
  tail; ``--once`` prints a single frame after the script finishes);
* ``bench diff`` — compare freshly emitted ``BENCH_*.json`` against
  committed baselines (the regression watchdog's diff engine; see
  ``benchmarks/regression.py`` for the re-run-and-diff ``check`` mode).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ModelManagementError


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _load_schema(path: str):
    from repro.metamodels.serialization import schema_from_dict

    return schema_from_dict(_load_json(path))


def _load_mapping(path: str):
    from repro.metamodels.serialization import mapping_from_dict

    return mapping_from_dict(_load_json(path))


def cmd_describe(args) -> int:
    print(_load_schema(args.schema).describe())
    return 0


def cmd_validate(args) -> int:
    from repro.instances.serialization import instance_from_dict
    from repro.instances.validation import violations
    from repro.metamodel.validation import schema_violations

    schema = _load_schema(args.schema)
    problems = schema_violations(schema)
    for problem in problems:
        print(f"schema: {problem}")
    if args.instance:
        instance = instance_from_dict(_load_json(args.instance), schema)
        for problem in violations(instance, schema):
            problems.append(problem)
            print(f"instance: {problem}")
    if not problems:
        print("ok")
    return 1 if problems else 0


def cmd_ddl(args) -> int:
    from repro.metamodels.relational import emit_ddl

    print(emit_ddl(_load_schema(args.schema)))
    return 0


def cmd_parse_ddl(args) -> int:
    from repro.metamodels.relational import parse_ddl
    from repro.metamodels.serialization import schema_to_dict

    schema = parse_ddl(Path(args.file).read_text(),
                       schema_name=args.name or Path(args.file).stem)
    print(json.dumps(schema_to_dict(schema), indent=2))
    return 0


def cmd_dot(args) -> int:
    from repro.metamodels.graphviz import schema_to_dot

    print(schema_to_dot(_load_schema(args.schema)))
    return 0


def cmd_match(args) -> int:
    from repro.operators.match import MatchConfig, match

    source = _load_schema(args.source)
    target = _load_schema(args.target)
    correspondences = match(
        source, target, MatchConfig(top_k=args.top_k, threshold=args.threshold)
    )
    print(correspondences.describe())
    return 0


def cmd_modelgen(args) -> int:
    from repro.metamodels.serialization import mapping_to_dict
    from repro.operators.modelgen import InheritanceStrategy, modelgen

    strategy = InheritanceStrategy[args.strategy.upper()]
    result = modelgen(_load_schema(args.schema), args.metamodel, strategy)
    print(result.schema.describe())
    print()
    print(result.mapping.describe())
    if args.out:
        Path(args.out).write_text(
            json.dumps(mapping_to_dict(result.mapping), indent=2,
                       default=str)
        )
        print(f"\nmapping written to {args.out}")
    return 0


def cmd_exchange(args) -> int:
    from repro.instances.serialization import (
        dump_instance,
        instance_from_dict,
    )
    from repro.runtime.executor import exchange

    mapping = _load_mapping(args.mapping)
    source = instance_from_dict(_load_json(args.data), mapping.source)
    result = exchange(mapping, source, compute_core=args.core)
    print(dump_instance(result))
    return 0


def cmd_sql(args) -> int:
    from repro.algebra.sql import to_sql
    from repro.operators.transgen import TransformationPair, transgen

    mapping = _load_mapping(args.mapping)
    views = transgen(mapping)
    if isinstance(views, TransformationPair):
        for relation, expr in views.query_view.rules:
            print(f"-- query view for {relation}")
            print(to_sql(expr))
            print()
    else:
        print("-- tgd mapping: executed by the chase, no view SQL")
        for tgd in mapping.tgds:
            print(f"-- {tgd}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts: anything but a positive integer is a
    usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _run_script_observed(
    script: str, quiet: bool, capacity: int | None = None
) -> None:
    """Execute ``script`` as ``__main__`` with observability enabled,
    after a reset; ``capacity`` resizes the journal's ring for the
    run (the reset restores the default)."""
    import contextlib
    import io
    import runpy

    import repro.observability as obs

    obs.reset()
    if capacity is not None:
        obs.JOURNAL.configure(capacity=capacity)
    obs.enable()
    try:
        if quiet:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(script, run_name="__main__")
        else:
            runpy.run_path(script, run_name="__main__")
    finally:
        obs.disable()


def cmd_explain(args) -> int:
    from repro.instances.database import Instance
    from repro.instances.serialization import instance_from_dict
    from repro.runtime.query_processor import QueryProcessor

    mapping = _load_mapping(args.mapping)
    if args.data:
        source = instance_from_dict(_load_json(args.data), mapping.source)
    else:
        if args.analyze:
            print("error: --analyze needs --data DATA.json", file=sys.stderr)
            return 2
        source = Instance(schema=mapping.source)
    processor = QueryProcessor(mapping, source)

    from repro.algebra.expressions import Scan

    query = Scan(args.relation)
    if args.compare:
        # Heuristic and cost-based plans for the same query, stacked —
        # the cost headers make the chosen-vs-heuristic delta explicit.
        heuristic = processor.explain(query, no_opt=True)
        cost_based = processor.explain(query, no_opt=False)
        if args.json:
            print(json.dumps(
                {"heuristic": heuristic.to_dict(),
                 "cost_based": cost_based.to_dict()},
                indent=2, default=str,
            ))
        else:
            print(f"-- target query: {args.relation}")
            print("-- heuristic plan (--no-opt)")
            print(heuristic.render())
            print()
            print("-- cost-based plan")
            print(cost_based.render())
        return 0
    if args.analyze:
        result = processor.explain_analyze(query, no_opt=args.no_opt)
    else:
        result = processor.explain(query, no_opt=args.no_opt)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=str))
    else:
        print(f"-- target query: {args.relation}")
        print(result.render())
    return 0


def cmd_trace(args) -> int:
    from repro.observability import registry, tracer

    _run_script_observed(args.script, args.quiet)
    if not tracer.roots:
        print("(no spans recorded — does the script use the engine?)")
        return 1
    print(tracer.render(attributes=not args.no_attributes))
    if args.rollup:
        from repro.observability.profile import (
            render_critical_path,
            render_rollup,
        )

        print("\nself-time rollup:")
        print(render_rollup())
        print()
        print(render_critical_path())
    if args.out:
        path = tracer.export_jsonl(args.out)
        print(f"\n{tracer.span_count()} spans exported to {path}")
    if args.chrome:
        from repro.observability.profile import export_chrome_trace

        path = export_chrome_trace(args.chrome)
        print(f"Chrome trace written to {path} "
              "(load in Perfetto / chrome://tracing)")
    if args.metrics:
        print()
        print(registry.render())
    return 0


def cmd_bench(args) -> int:
    from repro.observability.benchdiff import diff_dirs, diff_files

    if args.action != "diff":
        print(f"unknown bench action {args.action!r}", file=sys.stderr)
        return 2
    if args.baseline and args.fresh:
        reports = [diff_files(args.baseline, args.fresh)]
    elif args.fresh_dir:
        reports = diff_dirs(args.baseline_dir, args.fresh_dir)
    else:
        print("error: pass --baseline FILE --fresh FILE, or --fresh-dir DIR",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render(verbose=args.verbose))
    regressions = sum(len(r.regressions) for r in reports)
    return 1 if regressions else 0


def cmd_metrics(args) -> int:
    from repro.observability import registry

    _run_script_observed(args.script, args.quiet)
    fmt = "json" if args.json and args.format == "text" else args.format
    if fmt == "json":
        print(json.dumps(registry.snapshot(), indent=2, default=str))
    elif fmt == "prom":
        sys.stdout.write(registry.render_prometheus())
    else:
        print(registry.render())
    if args.out:
        path = registry.export_json(args.out)
        print(f"metrics written to {path}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    from repro.instances.serialization import instance_from_dict

    schema = _load_schema(args.schema) if args.schema else None
    instance = instance_from_dict(_load_json(args.data), schema)
    relations = (
        [args.relation] if args.relation else instance.relation_names()
    )
    stats = [instance.relation_stats(name) for name in relations]
    if args.json:
        print(json.dumps(
            {s.relation: s.to_dict() for s in stats}, indent=2, default=str
        ))
    else:
        print("\n\n".join(s.render() for s in stats))
    return 0


def _show_events(events, args) -> None:
    """The journal views' output: ``events`` as JSON Lines with
    ``--json``, else the newest ``--limit`` rendered; ``--out`` writes
    the same events as JSONL."""
    lines = [json.dumps(e.to_dict(), default=str) for e in events]
    if args.json:
        print("\n".join(lines))
    elif not events:
        print("(no events)")
    else:
        print("\n".join(e.render() for e in events[-args.limit:]))
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines))
        print(f"{len(lines)} events written to {args.out}",
              file=sys.stderr)


def cmd_journal(args) -> int:
    from repro.observability.journal import JOURNAL

    _run_script_observed(args.script, args.quiet, args.capacity)
    _show_events(JOURNAL.events(kind=args.kind), args)
    return 0


def cmd_querylog(args) -> int:
    from repro.algebra.evaluator import SLOW_QUERY_MS
    from repro.algebra.plan_cache import vector_plan_cache_stats
    from repro.observability.journal import JOURNAL

    _run_script_observed(args.script, args.quiet, args.capacity)
    events = [e for e in JOURNAL.events() if e.kind == "query"]
    if args.slow or args.slow_ms is not None:
        slow_ms = SLOW_QUERY_MS if args.slow_ms is None else args.slow_ms
        events = [e for e in events if e.attrs["wall_ms"] >= slow_ms]
    _show_events(events, args)
    stats = vector_plan_cache_stats()
    if not args.json and (stats["hits"] or stats["misses"]
                          or stats["reopts"]):
        reasons = stats["evictions_by_reason"]
        print(
            f"plan cache: "
            f"{stats['hits']} hits / {stats['misses']} misses, "
            f"evictions lru={reasons['lru']} "
            f"epoch={reasons['epoch']} reopt={reasons['reopt']}, "
            f"re-optimizations={stats['reopts']}"
        )
    return 0


def _parse_thresholds(items) -> dict:
    """``key=value`` CLI threshold overrides → {key: float}.  Raises
    ``ValueError`` on malformed input (the caller exits 2)."""
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = float(value)
    return overrides


def cmd_health(args) -> int:
    from repro.observability.health import MONITOR, HealthConfig

    try:
        config = HealthConfig().with_overrides(
            _parse_thresholds(args.threshold)
        )
    except (KeyError, ValueError) as exc:
        print(f"error: bad --threshold: {exc}", file=sys.stderr)
        return 2
    if args.script:
        _run_script_observed(args.script, args.quiet)
    report = MONITOR.evaluate(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_top(args) -> int:
    import contextlib
    import io
    import runpy
    import threading
    import time

    import repro.observability as obs
    from repro.observability.health import MONITOR
    from repro.observability.top import render_top

    obs.reset()
    obs.enable()
    failures: list[BaseException] = []

    def run_script() -> None:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(args.script, run_name="__main__")
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    try:
        if args.once:
            run_script()
            MONITOR.check()
            print(render_top())
        else:
            worker = threading.Thread(
                target=run_script, name="repro-top-script", daemon=True
            )
            worker.start()
            frames = 0
            while worker.is_alive() and (
                args.frames is None or frames < args.frames
            ):
                time.sleep(args.interval)
                MONITOR.check()
                frame = render_top()
                # Home + clear-to-end keeps the refresh flicker-free.
                sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
                sys.stdout.flush()
                frames += 1
            worker.join()
            MONITOR.check()
            print(render_top())
    finally:
        obs.disable()
    if failures:
        print(f"script failed: {failures[0]!r}", file=sys.stderr)
        return 1
    return 0


def _add_event_view_arguments(p, limit: int) -> None:
    """The arguments ``repro journal`` and ``repro querylog`` share."""
    p.add_argument("script", help="Python script executed as __main__")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the script's own stdout")
    p.add_argument("--limit", type=_positive_int, default=limit,
                   help=f"newest events to show (default {limit})")
    p.add_argument("--capacity", type=_positive_int, default=None,
                   help="journal ring capacity (default 512)")
    p.add_argument("--json", action="store_true",
                   help="print events as JSON Lines")
    p.add_argument("--out",
                   help="also export the filtered events as JSONL here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="generic model management engine "
        "(Bernstein & Melnik, SIGMOD 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a schema report")
    p.add_argument("schema")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("validate", help="check schema / instance")
    p.add_argument("schema")
    p.add_argument("--instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ddl", help="emit SQL DDL for a relational schema")
    p.add_argument("schema")
    p.set_defaults(func=cmd_ddl)

    p = sub.add_parser("parse-ddl", help="import CREATE TABLE statements")
    p.add_argument("file")
    p.add_argument("--name")
    p.set_defaults(func=cmd_parse_ddl)

    p = sub.add_parser("dot", help="Graphviz DOT rendering of a schema")
    p.add_argument("schema")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("match", help="propose correspondence candidates")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.25)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("modelgen", help="translate to another metamodel")
    p.add_argument("schema")
    p.add_argument("metamodel",
                   choices=["relational", "er", "oo", "nested"])
    p.add_argument("--strategy", default="TPT",
                   choices=["TPH", "TPT", "TPC"])
    p.add_argument("--out", help="write the mapping JSON here")
    p.set_defaults(func=cmd_modelgen)

    p = sub.add_parser("exchange", help="run a mapping over data")
    p.add_argument("mapping")
    p.add_argument("data")
    p.add_argument("--core", action="store_true",
                   help="minimize the result to its core")
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser("sql", help="print generated query-view SQL")
    p.add_argument("mapping")
    p.set_defaults(func=cmd_sql)

    p = sub.add_parser(
        "explain",
        help="annotated compiled plan for a target-relation query "
        "(EXPLAIN; --analyze executes and adds per-node stats)",
    )
    p.add_argument("mapping")
    p.add_argument("relation", help="target relation/entity to query")
    p.add_argument("--data", help="source instance JSON "
                   "(required with --analyze)")
    p.add_argument("--analyze", action="store_true",
                   help="run the plan and annotate per-node rows/time")
    p.add_argument("--json", action="store_true",
                   help="machine-readable plan/profile instead of the tree")
    p.add_argument("--no-opt", action="store_true", dest="no_opt",
                   help="skip the cost-based join-order phase and show "
                   "the heuristic plan")
    p.add_argument("--compare", action="store_true",
                   help="print the heuristic and cost-based plans for "
                   "the same query, with their estimated costs")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("trace",
                       help="run a script under tracing, print span tree")
    p.add_argument("script", help="Python script executed as __main__")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the script's own stdout")
    p.add_argument("--out", help="export spans as JSONL here")
    p.add_argument("--chrome",
                   help="export a Chrome/Perfetto trace JSON here")
    p.add_argument("--rollup", action="store_true",
                   help="print self-time rollup and critical path")
    p.add_argument("--metrics", action="store_true",
                   help="also print the metrics registry")
    p.add_argument("--no-attributes", action="store_true",
                   help="omit span attributes from the tree")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="benchmark utilities: `bench diff` compares emitted "
        "BENCH_*.json against committed baselines",
    )
    p.add_argument("action", choices=["diff"])
    p.add_argument("--baseline", help="one baseline BENCH json")
    p.add_argument("--fresh", help="one freshly emitted BENCH json")
    p.add_argument("--fresh-dir", help="directory of fresh BENCH_*.json")
    p.add_argument("--baseline-dir", default=".",
                   help="committed baselines (default: cwd)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also list unchanged metrics")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("metrics",
                       help="run a script, print collected engine metrics")
    p.add_argument("script", help="Python script executed as __main__")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the script's own stdout")
    p.add_argument("--json", action="store_true",
                   help="print a JSON snapshot instead of the summary "
                   "(same as --format json)")
    p.add_argument("--format", choices=["text", "json", "prom"],
                   default="text",
                   help="output format (prom: Prometheus text exposition)")
    p.add_argument("--out", help="also write the JSON snapshot here")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "stats",
        help="per-relation statistics of an instance (the cardinality "
        "estimator's inputs)",
    )
    p.add_argument("data", help="instance JSON")
    p.add_argument("--schema", help="schema JSON to bind while loading")
    p.add_argument("--relation", help="only this relation")
    p.add_argument("--json", action="store_true",
                   help="machine-readable statistics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "journal",
        help="run a script with observability on, print the engine "
        "event journal",
    )
    _add_event_view_arguments(p, limit=50)
    p.add_argument("--kind", default=None,
                   help="only events of this kind (exact or dotted "
                   "prefix)")
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser(
        "querylog",
        help="run a script with observability on, print its query "
        "events (the journal's kind=query view)",
    )
    _add_event_view_arguments(p, limit=20)
    p.add_argument("--slow", action="store_true",
                   help="only queries at or over 100 ms")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="only queries at or over this many ms")
    p.set_defaults(func=cmd_querylog)

    p = sub.add_parser(
        "health",
        help="evaluate SLO health signals; exit 1 on any breach "
        "(CI-friendly)",
    )
    p.add_argument("script", nargs="?", default=None,
                   help="optional script to run under observability "
                   "before evaluating")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the script's own stdout")
    p.add_argument("--threshold", action="append", metavar="KEY=VALUE",
                   help="override a threshold / min-sample knob "
                   "(repeatable); keys: cache_eviction_rate_max, "
                   "divergence_rate_max, slow_query_rate_max, "
                   "min_cache_lookups, min_query_samples")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "top",
        help="run a script while rendering a live telemetry dashboard",
    )
    p.add_argument("script", help="Python script executed as __main__")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between frames (default 1.0)")
    p.add_argument("--frames", type=int, default=None,
                   help="stop after N live frames (default: until the "
                   "script finishes)")
    p.add_argument("--once", action="store_true",
                   help="run the script to completion, then print one "
                   "frame")
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelManagementError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
