"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main entry points without writing Python:

* ``describe`` — self-documentation of a bundled layer (text/markdown);
* ``table1`` / ``fig6`` / ``fig9`` / ``fig12`` — regenerate the paper's
  artifacts on stdout;
* ``explore`` — a scripted exploration: requirements and decisions from
  the command line, survivors and ranges on stdout (``--trace`` records
  a replayable JSONL trace);
* ``trace`` — summarize, render, or replay-verify a recorded trace;
* ``stats`` — metrics from a traced scripted exploration
  (human-readable or Prometheus text format);
* ``query`` — direct core retrieval with property/merit filters;
* ``export`` — serialize a bundled layer to JSON.

* ``serve`` — long-lived HTTP/JSON server: the same verbs plus
  token-keyed concurrent sessions and a ``/metrics`` endpoint
  (see ``docs/serving.md``);

* ``lint`` — structural static analysis (``DSL0xx`` diagnostics);
* ``verify`` — semantic verification: dead-branch proofs, unsat cores
  and constraint strata (``DSL1xx`` diagnostics).

``lint``, ``verify``, ``trace`` and ``stats`` share one parent parser
for the ``--json`` / ``--output PATH`` output options.

The bundled layers are ``crypto`` (the Sec 5 case study) and ``idct``
(the Sec 2 example); ``--eol`` rebuilds the crypto libraries for another
operand length.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core import (
    CoreQuery,
    ExplorationSession,
    layer_to_dict,
    render_markdown,
    render_table,
)
from repro.core.layer import DesignSpaceLayer
from repro.errors import ReproError


def _build_layer(name: str, eol: int) -> DesignSpaceLayer:
    if name == "crypto":
        from repro.domains.crypto import build_crypto_layer
        return build_crypto_layer(eol=eol)
    if name == "idct":
        from repro.domains.idct import build_idct_layer
        return build_idct_layer()
    raise ReproError(f"unknown layer {name!r}; bundled: crypto, idct")


def _parse_binding(text: str) -> Tuple[str, object]:
    """``Name=value`` with int/float coercion where it parses."""
    name, sep, raw = text.partition("=")
    if not sep or not name or not raw:
        raise ReproError(f"expected Name=value, got {text!r}")
    for caster in (int, float):
        try:
            return name, caster(raw)
        except ValueError:
            continue
    return name, raw


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write a command's report to ``--output PATH`` or stdout."""
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fp:
            fp.write(text)
            if not text.endswith("\n"):
                fp.write("\n")
        print(f"wrote {output}")
    else:
        print(text)


def _emit_json(args: argparse.Namespace, data: object) -> None:
    _emit(args, json.dumps(data, indent=2, sort_keys=True, default=repr))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_describe(args: argparse.Namespace) -> int:
    layer = _build_layer(args.layer, args.eol)
    if args.markdown:
        print(render_markdown(layer))
    else:
        print(layer.describe())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.hw.synthesis import (
        TABLE1_RECIPES,
        TABLE1_SLICE_WIDTHS,
        synthesize_table1_cell,
    )
    headers = ["#", "radix", "algorithm", "adder", "multiplier"]
    for width in TABLE1_SLICE_WIDTHS:
        headers += [f"A{width}", f"L{width}", f"C{width}"]
    rows = []
    for number in sorted(TABLE1_RECIPES):
        radix, algorithm, adder, multiplier = TABLE1_RECIPES[number]
        row: List[object] = [f"#{number}", radix, algorithm, adder,
                             multiplier]
        for width in TABLE1_SLICE_WIDTHS:
            design = synthesize_table1_cell(number, width,
                                            args.technology)
            row += [round(design.area), round(design.latency_ns),
                    round(design.clock_ns, 2)]
        rows.append(row)
    print(render_table(headers, rows,
                       title=f"Table 1 (modelled, {args.technology}; "
                             f"latency for EOL = slice width)"))
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from repro.hw.synthesis import synthesize_sliced
    from repro.sw.cpu import pentium_suite
    rows: List[List[object]] = []
    for number, width in ((5, 16), (2, 128), (8, 64)):
        design = synthesize_sliced(number, width, args.eol)
        rows.append([design.name, "Hardware",
                     round(design.latency_us, 2)])
    for label, multiplier in pentium_suite(args.eol).items():
        rows.append([label, "Software", round(multiplier.delay_us(args.eol), 1)])
    rows.sort(key=lambda r: r[2])
    print(render_table(["design", "family", "delay (us)"], rows,
                       title=f"Fig 6 — one {args.eol}-bit modular "
                             f"multiplication"))
    return 0


def _scatter_rows(points) -> List[List[object]]:
    return [[name, round(delay), round(area)]
            for name, (delay, area) in sorted(points.items())]


def cmd_fig9(args: argparse.Namespace) -> int:
    from repro.hw.synthesis import synthesize_sliced
    points = {}
    for number in (2, 8):
        for width in (8, 16, 32, 64, 128):
            if args.eol % width:
                continue
            design = synthesize_sliced(number, width, args.eol)
            points[design.name] = (design.latency_ns, design.area)
    print(render_table(["design", "delay (ns)", "area"],
                       _scatter_rows(points),
                       title=f"Fig 9 — Montgomery (#2) vs Brickell (#8) "
                             f"at {args.eol} bits"))
    return 0


def cmd_fig12(args: argparse.Namespace) -> int:
    from repro.hw.synthesis import synthesize_table1_cell
    points = {}
    for number in (1, 2, 3, 4, 5, 6):
        design = synthesize_table1_cell(number, 64)
        points[design.name] = (design.latency_ns, design.area)
    print(render_table(["design", "delay (ns)", "area"],
                       _scatter_rows(points),
                       title="Fig 12 — 64-bit Montgomery multipliers on "
                             "64-bit slices"))
    return 0


def _run_scripted_session(layer: DesignSpaceLayer,
                          args: argparse.Namespace) -> ExplorationSession:
    """The shared explore/stats walk: requirements, then decisions."""
    session = ExplorationSession(
        layer, args.start,
        merit_metrics=tuple(args.metrics.split(",")))
    for binding in args.require or ():
        name, value = _parse_binding(binding)
        session.set_requirement(name, value)
    for binding in args.decide or ():
        name, value = _parse_binding(binding)
        outcome = session.decide(name, value)
        print(f"  {outcome.describe()}")
    return session


def _automated_explore(args: argparse.Namespace) -> int:
    """``repro explore --strategy NAME``: run the exploration engine on
    the bundled problem instead of a scripted manual walk."""
    from dataclasses import replace

    from repro.core.explore import ExplorationEngine

    if args.layer == "crypto":
        from repro.domains.crypto import crypto_exploration_problem
        problem = crypto_exploration_problem(
            eol=args.eol, with_estimator=args.estimate)
    else:
        from repro.domains.idct import idct_exploration_problem
        problem = idct_exploration_problem()
    problem = replace(problem, metrics=tuple(args.metrics.split(",")))
    if args.require:
        overrides = dict(problem.requirements)
        for binding in args.require:
            name, value = _parse_binding(binding)
            overrides[name] = value
        problem = replace(problem, requirements=tuple(overrides.items()))
    if args.decide:
        prefix = tuple(_parse_binding(b) for b in args.decide)
        problem = replace(problem, decisions=problem.decisions + prefix)
    # The engine's serial/probe path works on this layer (traced when
    # asked); parallel workers hydrate their own layers from the
    # problem's factory/snapshot and ship span buffers back for the
    # engine's deterministic trace merge.
    layer = _build_layer(args.layer, args.eol)
    if args.trace:
        layer.observe()
    problem = replace(problem, layer=layer)
    options = {}
    if args.strategy in ("evolutionary", "ga"):
        options.update(seed=args.seed, population=args.population,
                       generations=args.generations)
    elif args.strategy == "beam":
        options["width"] = args.beam_width
    result = ExplorationEngine(
        problem, strategy=args.strategy, jobs=args.jobs,
        strategy_options=options,
        chunk_size=getattr(args, "chunk_size", None),
        trace_sample_rate=getattr(args, "trace_sample", None)).run()
    if getattr(args, "json", False):
        _emit_json(args, result.to_dict())
    else:
        _emit(args, result.render_text(limit=args.top))
    if args.trace:
        from repro.core.obs import write_jsonl
        events = layer.observer.events
        write_jsonl(events, args.trace)
        print(f"trace: {len(events)} events written to {args.trace}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    if args.strategy:
        return _automated_explore(args)
    layer = _build_layer(args.layer, args.eol)
    if args.trace:
        layer.observe()
    session = _run_scripted_session(layer, args)
    print(session.report())
    if args.trace:
        from repro.core.obs import write_jsonl
        events = layer.observer.events
        write_jsonl(events, args.trace)
        print(f"trace: {len(events)} events written to {args.trace}")
    if args.options:
        for info in session.available_options(args.options):
            status = "eliminated" if info.eliminated else \
                f"{info.candidate_count} candidates"
            print(f"  option {info.option}: {status} {info.ranges}")
    if args.list:
        for core in session.candidates():
            print(f"  {core.describe()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    layer = _build_layer(args.layer, args.eol)
    query = CoreQuery(layer)
    if args.under:
        query = query.under(args.under)
    for binding in args.where or ():
        name, value = _parse_binding(binding)
        query = query.where(**{name: value})
    if args.max_merit:
        name, value = _parse_binding(args.max_merit)
        query = query.merit_at_most(name, float(value))
    if args.order_by:
        query = query.order_by(args.order_by)
    if args.limit:
        query = query.limit(args.limit)
    cores = query.all()
    for core in cores:
        print(core.describe())
    print(f"({len(cores)} cores)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.lint import (
        DEFAULT_REGISTRY,
        LintConfig,
        parse_severity,
    )
    if args.list_rules:
        for lint_rule in DEFAULT_REGISTRY:
            print(lint_rule.describe())
        return 0
    layer = _build_layer(args.layer, args.eol)
    config = LintConfig(select=args.select or None,
                        disable=tuple(args.disable or ()))
    report = layer.lint(config=config)
    if args.json or args.format == "json":
        _emit_json(args, report.to_dict())
    else:
        _emit(args, report.render_text())
    threshold = parse_severity(args.fail_on)
    return 1 if report.has_at_least(threshold) else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_REGISTRY as ANALYSIS_REGISTRY,
        AnalysisConfig,
        analyze_package,
        analyze_paths,
    )
    from repro.core.lint import parse_severity
    if args.list_rules:
        for analysis_rule in ANALYSIS_REGISTRY:
            print(analysis_rule.describe())
        return 0
    if args.lock_graph:
        from repro.analysis import lock_graph_package, lock_graph_paths
        if args.path:
            graph = lock_graph_paths(args.path)
        else:
            graph = lock_graph_package(args.package)
        if args.json or args.format == "json":
            _emit_json(args, graph.to_dict())
        else:
            _emit(args, graph.render_text())
        return 0 if graph.acyclic else 1
    config = AnalysisConfig(select=args.select or None,
                            disable=tuple(args.disable or ()))
    if args.path:
        report = analyze_paths(args.path, config=config)
    else:
        report = analyze_package(args.package, config=config)
    if args.json or args.format == "json":
        _emit_json(args, report.to_dict())
    else:
        _emit(args, report.render_text())
    threshold = parse_severity(args.fail_on)
    return 1 if report.has_at_least(threshold) else 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.lint import parse_severity
    layer = _build_layer(args.layer, args.eol)
    requirements = tuple(_parse_binding(b) for b in args.require or ())
    report = layer.verify(requirements=requirements, start=args.start)
    if args.json or args.format == "json":
        _emit_json(args, report.to_dict())
    else:
        _emit(args, report.render_text())
        for core in report.analysis.unsat_cores:
            print(f"fix-it: region {core.region}:")
            for hint in core.hints:
                print(f"  - {hint}")
    threshold = parse_severity(args.fail_on)
    return 1 if report.has_at_least(threshold) else 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.obs import read_jsonl, render_timeline, summarize, \
        summarize_dict
    from repro.core.obs.replay import session_ids
    from repro.errors import ReplayError
    try:
        events = read_jsonl(args.trace_file)
    except OSError as exc:
        raise ReplayError(
            f"cannot read trace file {args.trace_file}: {exc}") from exc
    if args.replay:
        from repro.core.obs.replay import replay_trace
        layer = _build_layer(args.layer, args.eol)
        report = replay_trace(layer, events, session=args.session)
        if args.json:
            _emit_json(args, report.to_dict())
        else:
            _emit(args, report.render_text())
        return 0 if report.ok else 1
    if args.session is not None:
        # The summary/timeline honor --session too: keep the selected
        # session's events plus the session-less ones (index builds,
        # lint runs) that give the timeline its context.
        if args.session not in session_ids(events):
            raise ReplayError(f"no session {args.session} in trace "
                              f"(recorded: {session_ids(events)})")
        events = [e for e in events
                  if e.payload.get("session", args.session) == args.session]
    if args.timeline:
        _emit(args, render_timeline(events))
    elif args.json:
        _emit_json(args, summarize_dict(events))
    else:
        _emit(args, summarize(events))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.obs import profile_events, read_jsonl
    from repro.errors import ReplayError
    try:
        events = read_jsonl(args.trace_file)
    except OSError as exc:
        raise ReplayError(
            f"cannot read trace file {args.trace_file}: {exc}") from exc
    profile = profile_events(events)
    if args.json:
        _emit_json(args, profile.to_dict(top=args.top))
    elif args.flame:
        _emit(args, profile.render_flame(max_depth=args.max_depth))
    else:
        _emit(args, profile.render_table(top=args.top) + "\n\n"
              + profile.render_flame(max_depth=args.max_depth))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    layer = _build_layer(args.layer, args.eol)
    recorder = layer.observe()
    session = _run_scripted_session(layer, args)
    # Exercise the query path too, so the dump covers prune/cache
    # metrics and not just the mutation counters.
    session.prune_report()
    session.prune_report()
    metrics = recorder.metrics
    if args.json:
        _emit_json(args, metrics.to_dict())
    elif args.prometheus:
        _emit(args, metrics.render_prometheus())
    else:
        _emit(args, metrics.render_text())
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import run_shell
    layer = _build_layer(args.layer, args.eol)
    start = args.start if args.layer == "crypto" else "IDCT"
    run_shell(layer, start)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import DesignSpaceService, serve
    service = DesignSpaceService(eol=args.eol,
                                 default_layer=args.layer,
                                 session_ttl=args.session_ttl)

    def ready(server) -> None:
        print(f"serving design-space layers "
              f"({', '.join(sorted(service.verbs))}) on {server.url} "
              f"- scrape {server.url}/metrics", file=sys.stderr)

    return serve(service, host=args.host, port=args.port,
                 json_logs=args.json_logs, ready=ready)


def cmd_export(args: argparse.Namespace) -> int:
    layer = _build_layer(args.layer, args.eol)
    json.dump(layer_to_dict(layer), sys.stdout, indent=None if args.compact
              else 2, sort_keys=True)
    print()
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Design Space Layer (DATE 1999) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_layer_args(p):
        p.add_argument("--layer", default="crypto",
                       choices=("crypto", "idct"),
                       help="bundled layer to operate on")
        p.add_argument("--eol", type=int, default=768,
                       help="operand length the crypto libraries are "
                            "characterized for")

    # Output options shared (as an argparse parent) by lint/trace/stats.
    output_parent = argparse.ArgumentParser(add_help=False)
    output_group = output_parent.add_argument_group("output")
    output_group.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    output_group.add_argument("--output", metavar="PATH",
                              help="write the report to PATH instead of "
                                   "stdout")

    def add_session_args(p):
        p.add_argument("--start", default="OMM",
                       help="CDO (or alias) the session starts at")
        p.add_argument("--require", action="append", metavar="NAME=VALUE",
                       help="enter a requirement value (repeatable)")
        p.add_argument("--decide", action="append", metavar="ISSUE=OPTION",
                       help="decide a design issue (repeatable, in order)")
        p.add_argument("--metrics", default="area,latency_ns,delay_us",
                       help="comma-separated merit metrics to report")

    p = sub.add_parser("describe", help="self-documentation of a layer")
    add_layer_args(p)
    p.add_argument("--markdown", action="store_true",
                   help="emit Markdown instead of plain text")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--technology", default="0.35u")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("fig6", help="regenerate Fig 6")
    p.add_argument("--eol", type=int, default=1024)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig9", help="regenerate Fig 9")
    p.add_argument("--eol", type=int, default=768)
    p.set_defaults(fn=cmd_fig9)

    p = sub.add_parser("fig12", help="regenerate Fig 12")
    p.set_defaults(fn=cmd_fig12)

    p = sub.add_parser("explore",
                       help="scripted or automated exploration",
                       parents=[output_parent])
    add_layer_args(p)
    add_session_args(p)
    p.add_argument("--options", metavar="ISSUE",
                   help="annotate the options of an issue")
    p.add_argument("--list", action="store_true",
                   help="list surviving cores")
    p.add_argument("--trace", metavar="PATH",
                   help="record the session as a replayable JSONL trace")
    engine = p.add_argument_group(
        "automated search (enabled by --strategy; --require adds to and "
        "--decide prefixes the bundled problem)")
    engine.add_argument("--strategy", default=None,
                        choices=("exhaustive", "bnb", "branch-and-bound",
                                 "beam", "evolutionary", "ga"),
                        help="run the exploration engine instead of a "
                             "scripted walk")
    engine.add_argument("--jobs", type=int, default=1,
                        help="worker processes evaluating branches "
                             "(1 = serial)")
    engine.add_argument("--chunk-size", type=int, default=None,
                        metavar="N",
                        help="branches per dispatched chunk (default: "
                             "tasks // (jobs * 4); idle workers steal "
                             "pending chunks)")
    engine.add_argument("--seed", type=int, default=0,
                        help="evolutionary strategy seed (deterministic)")
    engine.add_argument("--beam-width", type=int, default=4,
                        help="beam strategy width")
    engine.add_argument("--population", type=int, default=16,
                        help="evolutionary population size")
    engine.add_argument("--generations", type=int, default=8,
                        help="evolutionary generations")
    engine.add_argument("--estimate", action="store_true",
                        help="estimate merits of empty surviving sets "
                             "with the layer's estimation tools (crypto)")
    engine.add_argument("--top", type=int, default=10,
                        help="frontier rows to print")
    engine.add_argument("--trace-sample", type=float, default=None,
                        metavar="RATE",
                        help="per-branch trace sampling rate in [0, 1] "
                             "for parallel dispatches (default: adaptive "
                             "— full below 16 branches, decaying after)")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("query", help="direct core retrieval")
    add_layer_args(p)
    p.add_argument("--under", help="CDO (or alias) to search below")
    p.add_argument("--where", action="append", metavar="PROP=VALUE",
                   help="property equality filter (repeatable)")
    p.add_argument("--max-merit", metavar="MERIT=BOUND",
                   help="upper bound on a figure of merit")
    p.add_argument("--order-by", metavar="MERIT")
    p.add_argument("--limit", type=int)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("lint", help="static analysis of a layer",
                       parents=[output_parent])
    add_layer_args(p)
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (legacy spelling of --json)")
    p.add_argument("--fail-on", default="error",
                   choices=("error", "warning", "info"),
                   help="exit non-zero when findings at or above this "
                        "severity exist")
    p.add_argument("--select", action="append", metavar="RULE",
                   help="run only these rules (code, slug or category; "
                        "repeatable)")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="skip these rules (code, slug or category; "
                        "repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("analyze",
                       help="concurrency/invariant analysis of the "
                            "repo's own source (DSA rules)",
                       parents=[output_parent])
    p.add_argument("path", nargs="*",
                   help="files or directories to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--package", default="repro",
                   help="importable package to analyze when no paths "
                        "are given (default: repro)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (legacy spelling of --json)")
    p.add_argument("--fail-on", default="error",
                   choices=("error", "warning", "info"),
                   help="exit non-zero when unsuppressed findings at or "
                        "above this severity exist")
    p.add_argument("--select", action="append", metavar="RULE",
                   help="run only these rules (code, slug or category; "
                        "repeatable)")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="skip these rules (code, slug or category; "
                        "repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the DSA rule catalogue and exit")
    p.add_argument("--lock-graph", action="store_true",
                   help="emit the lock-acquisition graph instead of "
                        "findings; exits non-zero when the graph has a "
                        "cycle (an ABBA deadlock)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify",
                       help="semantic verification of a layer "
                            "(dead branches, unsat cores, strata)",
                       parents=[output_parent])
    add_layer_args(p)
    p.add_argument("--start", default=None, metavar="CDO",
                   help="restrict the analysis to this CDO's subtree "
                        "(default: the whole layer)")
    p.add_argument("--require", action="append", metavar="NAME=VALUE",
                   help="requirement value to verify against "
                        "(repeatable)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (legacy spelling of --json)")
    p.add_argument("--fail-on", default="error",
                   choices=("error", "warning", "info"),
                   help="exit non-zero when findings at or above this "
                        "severity exist")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("trace", help="summarize, render or replay a "
                                     "recorded exploration trace",
                       parents=[output_parent])
    add_layer_args(p)
    p.add_argument("trace_file", metavar="FILE",
                   help="JSONL trace recorded by 'explore --trace' or "
                        "the shell's 'trace save'")
    p.add_argument("--timeline", action="store_true",
                   help="render the nested event timeline instead of "
                        "the summary")
    p.add_argument("--replay", action="store_true",
                   help="re-apply the trace against the bundled layer "
                        "and verify surviving-core digests (exit 1 on "
                        "divergence)")
    p.add_argument("--session", type=int, default=None,
                   help="session id to replay when the trace holds "
                        "several")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("profile", help="span profile of a recorded "
                                       "trace: hot sites and flame tree",
                       parents=[output_parent])
    p.add_argument("trace_file", metavar="FILE",
                   help="JSONL trace recorded by 'explore --trace' or "
                        "the shell's 'trace save'")
    p.add_argument("--top", type=int, default=20,
                   help="site rows in the table (and in --json output)")
    p.add_argument("--flame", action="store_true",
                   help="render only the flame tree")
    p.add_argument("--max-depth", type=int, default=None, metavar="N",
                   help="truncate the flame tree below N levels")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("stats", help="metrics from a traced scripted "
                                     "exploration",
                       parents=[output_parent])
    add_layer_args(p)
    add_session_args(p)
    p.add_argument("--prometheus", action="store_true",
                   help="Prometheus text exposition format instead of "
                        "the human-readable table")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("export", help="serialize a layer to JSON")
    add_layer_args(p)
    p.add_argument("--compact", action="store_true")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("serve",
                       help="long-lived HTTP/JSON server multiplexing "
                            "concurrent exploration sessions")
    add_layer_args(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--json-logs", action="store_true",
                   help="structured JSON access logs on stderr")
    p.add_argument("--session-ttl", type=float, default=900.0,
                   metavar="SECONDS",
                   help="idle lifetime before a session is evicted")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("shell", help="interactive exploration shell")
    add_layer_args(p)
    p.add_argument("--start", default="OMM",
                   help="CDO (or alias) the session starts at")
    p.set_defaults(fn=cmd_shell)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
