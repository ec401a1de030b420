"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check``   — parse + validate a DSL file, report element analyses;
* ``fmt``     — pretty-print a DSL file in canonical form;
* ``compile`` — compile and show the legality matrix or emitted code;
* ``plan``    — solve placement for an app's chain and show the layout;
* ``bench``   — quick simulated run of a chain on a chosen stack;
* ``faults``  — fault-injection demo: crash a machine mid-workload and
  print the fault timeline plus the recovery report;
* ``overload`` — goodput sweep past saturation: the unprotected
  baseline's metastable collapse vs the protected stack's graceful
  degradation (repro.overload);
* ``offload`` — shed-point comparison: the same protected mesh with
  host-only shedding vs a SmartNIC running the chain's offloadable
  prefix and shedding in front of the host (repro.offload);
* ``graph``   — load/validate a service-graph topology spec
  (repro.graph), print every edge with its attached chain, the
  topology findings (ADN600 resolution, ADN405-407, and with
  ``--check`` the interprocedural ADN601-606/ADN70x analysis), and the
  solved cross-service placement.

The RPC schema is given as repeated ``--field name:type`` options
(types: str, int, float, bool, bytes). A reasonable default schema
(payload/username/obj_id) applies when none is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Tuple

from .compiler.compiler import AdnCompiler
from .control.placement import ClusterSpec, PlacementRequest, solve_placement
from .dsl import FieldType, FunctionRegistry, RpcSchema, parse
from .dsl.ast_nodes import ChainDecl
from .dsl.printer import print_program
from .dsl.stdlib import load_stdlib_at_entries, validate_over_stdlib
from .dsl.validator import validate_program
from .errors import AdnError


def _default_schema() -> RpcSchema:
    return RpcSchema.of(
        "cli",
        payload=FieldType.BYTES,
        username=FieldType.STR,
        obj_id=FieldType.INT,
    )


def _schema_from_args(fields: Optional[List[str]]) -> RpcSchema:
    if not fields:
        return _default_schema()
    schema = RpcSchema("cli")
    for spec in fields:
        name, _, type_name = spec.partition(":")
        if not type_name:
            raise AdnError(f"--field wants name:type, got {spec!r}")
        schema.add(name, FieldType.from_keyword(type_name))
    return schema


def _read(path: str) -> str:
    """An input file's text; a missing or unreadable file is a user
    error (a one-line diagnostic), not a traceback."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise AdnError(f"cannot read {path}: {error.strerror}") from error


def _load(path: str, schema: RpcSchema, include_stdlib: bool = True):
    """Read and parse ``path`` once: (its text, its own definitions,
    those definitions validated over the stdlib)."""
    source = _read(path)
    own = parse(source)
    if include_stdlib:
        return source, own, validate_over_stdlib(own, schema)
    return source, own, validate_program(own, schema=schema)


def _lint_run(items, options, stdlib: bool, rules=None):
    """One lint run over ``items`` and, with ``stdlib``, every stdlib
    entry after them (as ``<stdlib:NAME>``, in name order), running the
    rules whose codes ``rules`` holds (default: all). The run parses,
    validates and lowers each stdlib definition once, for its entry and
    for the files' chains alike (:func:`repro.lint.lint_sources`)."""
    from .dsl.stdlib import STDLIB_SOURCES
    from .lint import lint_sources

    entries = sorted(STDLIB_SOURCES) if stdlib else ()
    return lint_sources(items, options, rules, entries)


def _write_bench_json(path, benchmark, seed, config, results) -> None:
    """One stable on-disk shape for every benchmark command's ``--json``:
    consumers key on ``benchmark`` and ``schema_version`` and treat
    ``config``/``results`` as the command's own (versioned) payload."""
    payload = {
        "benchmark": benchmark,
        "schema_version": 1,
        "seed": seed,
        "config": config,
        "results": results,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _fails(diagnostics, threshold) -> bool:
    """The one exit-code rule every subcommand shares: nonzero exactly
    when some diagnostic is at least ``--fail-on`` severe. ``lint``,
    ``check`` and ``graph --check`` must agree for both ``--format``
    modes, so they all route through this predicate."""
    return any(
        diagnostic.severity.rank >= threshold.rank
        for diagnostic in diagnostics
    )


def _graph_spec_diagnostics(args, program, schema, spec: str):
    """Diagnostics for a topology spec checked against ``program``:
    ADN600 loading failures, or every spec check including the full
    interprocedural analysis. Returns (diagnostics, failed)."""
    from .graph.lint import lint_graph, load_graph_spec, spec_cluster_block
    from .lint import Severity
    from .lint.diagnostics import sort_key

    graph, diagnostics = load_graph_spec(spec)
    if graph is not None:
        errors, findings, _analysis = lint_graph(
            graph, program, schema, path=spec,
            cluster=spec_cluster_block(spec),
        )
        diagnostics = sorted(errors + findings, key=sort_key)
    return diagnostics, _fails(diagnostics, Severity.from_name(args.fail_on))


def _typecheck_diagnostics(args, schema, source, own):
    """Run the ADN5xx abstract-interpretation rules for ``check --types``
    over the file (already read and parsed: ``source``, ``own``) and
    optionally the stdlib; returns (diagnostics, failed) where
    ``failed`` honours ``--fail-on`` identically for the text and json
    output paths."""
    from .lint import LintOptions, Severity, all_rules

    options = LintOptions(
        schema=schema, include_stdlib=not args.no_stdlib
    )
    # only the type rules run; the filter drops front-end findings
    types = {
        rule.code for rule in all_rules() if rule.code.startswith("ADN5")
    }
    results = _lint_run(
        [(args.file, source, own)], options, args.stdlib, types
    )
    diagnostics = [
        diagnostic
        for result in results
        for diagnostic in result.diagnostics
        if diagnostic.code in types
    ]
    threshold = Severity.from_name(args.fail_on)
    return diagnostics, _fails(diagnostics, threshold)


def cmd_check(args) -> int:
    schema = _schema_from_args(args.field)
    try:
        source, own, program = _load(
            args.file, schema, include_stdlib=not args.no_stdlib
        )
    except AdnError as error:
        where = getattr(error, "path", "") or args.file
        if args.format == "json":
            print(json.dumps({
                "file": args.file,
                "ok": False,
                "error": {
                    "message": str(error),
                    "path": where,
                    "line": getattr(error, "line", 0),
                    "column": getattr(error, "column", 0),
                },
            }, indent=2))
        else:
            print(f"{where}: error: {error}", file=sys.stderr)
        return 1
    diagnostics, types_failed = (
        _typecheck_diagnostics(args, schema, source, own)
        if args.types
        else ([], False)
    )
    graph_diags, graph_failed = (
        _graph_spec_diagnostics(args, program, schema, args.graph)
        if args.graph
        else ([], False)
    )
    failed = types_failed or graph_failed
    if args.format == "json":
        payload = {
            "file": args.file,
            "ok": not failed,
            "elements": sorted(own.elements),
            "filters": sorted(own.filters),
            "apps": sorted(own.apps),
        }
        if args.types:
            payload["typecheck"] = [d.to_dict() for d in diagnostics]
        if args.graph:
            payload["graph"] = [d.to_dict() for d in graph_diags]
        print(json.dumps(payload, indent=2))
        # json and text must agree: nonzero whenever findings reach
        # --fail-on, zero otherwise
        return 1 if failed else 0
    print(f"{args.file}: OK" if not failed else f"{args.file}: FAIL")
    print(
        f"  elements: {len(own.elements)}  filters: {len(own.filters)}  "
        f"apps: {len(own.apps)}"
    )
    if args.types:
        for diagnostic in diagnostics:
            print(diagnostic.format_text())
        print(
            f"  typecheck: {len(diagnostics)} finding(s) "
            f"(fail threshold: {args.fail_on})"
        )
    if args.graph:
        for diagnostic in graph_diags:
            print(diagnostic.format_text())
        print(
            f"  graph: {len(graph_diags)} finding(s) against {args.graph} "
            f"(fail threshold: {args.fail_on})"
        )
    if args.analyze:
        from .ir import analyze_element, build_element_ir

        for name in own.elements:
            analysis = analyze_element(
                build_element_ir(program.elements[name])
            )
            flags = []
            if analysis.can_drop:
                flags.append("drops")
            if analysis.can_multiply:
                flags.append("fans-out")
            if analysis.observable_effects:
                flags.append("effects")
            if not analysis.deterministic:
                flags.append("nondeterministic")
            print(
                f"  {name}: reads={sorted(analysis.fields_read)} "
                f"writes={sorted(analysis.fields_written)} "
                f"[{', '.join(flags) or 'pure'}]"
            )
    return 1 if failed else 0


def cmd_lint(args) -> int:
    from .lint import LintOptions, Severity

    if args.explain:
        from .lint.explain import explain_rule
        from .lint.registry import all_rules

        text = explain_rule(args.explain)
        if text is None:
            known = ", ".join(r.code for r in all_rules())
            print(
                f"unknown rule {args.explain!r}; registered rules: {known}",
                file=sys.stderr,
            )
            return 1
        print(text)
        return 0

    schema = _schema_from_args(args.field) if args.field else None
    cluster = ClusterSpec(
        smartnics=args.smartnics,
        programmable_switch=args.switch,
        kernel_offload=not args.no_kernel,
        sidecars_available=not args.no_sidecars,
        engine_available=not args.no_engine,
        standby_controller=args.standby_controller,
    )
    options = LintOptions(
        schema=schema,
        include_stdlib=not args.no_stdlib,
        cluster=cluster,
    )
    threshold = Severity.from_name(args.fail_on)
    results = _lint_run(
        [(path, _read(path)) for path in args.files], options, args.stdlib
    )
    failed = False
    total = 0
    if args.format == "json":
        payload = []
        for result in results:
            payload.append({
                "path": result.path,
                "diagnostics": [d.to_dict() for d in result.diagnostics],
                "fails": result.fails(threshold),
            })
            failed = failed or result.fails(threshold)
            total += len(result.diagnostics)
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            for diagnostic in result.diagnostics:
                print(diagnostic.format_text())
            failed = failed or result.fails(threshold)
            total += len(result.diagnostics)
        files = len(results)
        print(
            f"{total} finding(s) in {files} file(s) "
            f"(fail threshold: {threshold.value})"
        )
    return 1 if failed else 0


def cmd_fmt(args) -> int:
    program = parse(_read(args.file))
    text = print_program(program)
    if args.in_place:
        with open(args.file, "w") as handle:
            handle.write(text)
        print(f"formatted {args.file}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compile(args) -> int:
    schema = _schema_from_args(args.field)
    _, own, program = _load(args.file, schema)
    if args.explain or args.verify:
        return _explain(program, own, schema, verify=args.verify)
    compiler = AdnCompiler(registry=FunctionRegistry())
    targets = list(own.elements) or list(program.elements)
    if args.element:
        targets = [args.element]
    for name in targets:
        if name not in program.elements:
            print(f"unknown element {name!r}", file=sys.stderr)
            return 1
        compiled = compiler.compile_element(program.elements[name])
        if args.emit:
            artifact = compiled.artifact(args.emit)
            print(f"// ==== {name} [{args.emit}] ====")
            print(artifact.source)
        else:
            print(f"{name}:")
            for backend, report in compiled.legality.items():
                if report.legal:
                    loc = compiled.artifacts[backend].loc
                    print(f"  {backend:7s} OK   ({loc} generated lines)")
                else:
                    print(f"  {backend:7s} NO   {report.violations[0]}")
    return 0


def _explain(program, own, schema, verify: bool = False) -> int:
    """``compile --explain``/``--verify``: run the full optimization
    pipeline (all passes on, including opt-in fusion) and print each
    chain's per-pass report plus the compiler's artifact-cache
    statistics. With ``verify``, every pass is translation-validated
    against the pre-pass chain; a failed pipeline emits no artifacts
    and the command exits nonzero with the counterexample."""
    from .errors import TranslationValidationError
    from .ir.optimizer import OptimizerOptions
    from .ir.passmgr import format_report_table

    compiler = AdnCompiler(
        registry=FunctionRegistry(),
        options=OptimizerOptions(fusion=True, verify=verify),
    )
    chains = []
    apps = list(own.apps)
    try:
        if apps:
            for app_name in apps:
                chains.extend(
                    compiler.compile_app(program, app_name, schema).chains
                )
        else:
            # no app in the file: explain each element as a one-element
            # chain
            targets = list(own.elements) or list(program.elements)
            for name in targets:
                chains.append(
                    compiler.compile_chain(
                        ChainDecl(src="A", dst="B", elements=(name,)),
                        program,
                        schema,
                    )
                )
    except TranslationValidationError as error:
        where = ""
        if error.span is not None and error.span.line > 0:
            where = f" (line {error.span.line}, column {error.span.column})"
        print(f"translation validation FAILED{where}: {error}",
              file=sys.stderr)
        print("no artifacts emitted", file=sys.stderr)
        return 1
    for chain in chains:
        print(f"chain {chain.decl.src} -> {chain.decl.dst}:")
        print(f"  input : {' -> '.join(chain.decl.elements)}")
        print(f"  output: {' -> '.join(chain.element_order)}")
        print(format_report_table(chain.ir.pass_reports))
        print()
    stats = compiler.cache_stats
    print(
        f"artifact cache: {stats.hits} hits, {stats.misses} misses "
        f"({stats.lookups} lookups)"
    )
    return 0


def cmd_plan(args) -> int:
    schema = _schema_from_args(args.field)
    _, own, program = _load(args.file, schema)
    apps = list(own.apps)
    if not apps:
        print("no app definition in the file", file=sys.stderr)
        return 1
    app_name = args.app or apps[0]
    compiler = AdnCompiler(registry=FunctionRegistry())
    compiled_app = compiler.compile_app(program, app_name, schema)
    cluster = ClusterSpec(
        smartnics=args.smartnics,
        programmable_switch=args.switch,
    )
    for chain in compiled_app.chains:
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=schema,
                cluster=cluster,
                strategy=args.strategy,
                replicas=args.replicas,
            )
        )
        print(f"chain {chain.decl.src} -> {chain.decl.dst} "
              f"(strategy {args.strategy}):")
        for segment in plan.segments:
            replicas = (
                f" x{segment.replicas}" if segment.replicas > 1 else ""
            )
            print(
                f"  [{segment.platform.value}@{segment.machine}{replicas}] "
                + ", ".join(segment.elements)
            )
    return 0


def cmd_bench(args) -> int:
    from .baselines import EnvoyMeshStack, GrpcStack
    from .ir import analyze_element, build_element_ir
    from .runtime import AdnMrpcStack
    from .runtime.message import reset_rpc_ids
    from .sim import ClosedLoopClient, Simulator, two_machine_cluster

    schema = _schema_from_args(args.field)
    names = [name.strip() for name in args.chain.split(",") if name.strip()]
    program = load_stdlib_at_entries(schema=schema)
    registry = FunctionRegistry()
    reset_rpc_ids()
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    if args.system == "adn":
        compiler = AdnCompiler(registry=registry)
        chain = compiler.compile_chain(
            ChainDecl(src="A", dst="B", elements=tuple(names)), program, schema
        )
        stack = AdnMrpcStack(sim, cluster, chain, schema, registry)
    elif args.system == "envoy":
        irs = []
        for name in names:
            ir = build_element_ir(program.elements[name])
            analyze_element(ir, registry)
            irs.append(ir)
        stack = EnvoyMeshStack(
            sim, cluster, schema, client_filters=irs, server_filters=[],
            registry=registry,
        )
    else:  # plain grpc
        stack = GrpcStack(sim, cluster, schema)
    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=args.concurrency,
        total_rpcs=args.rpcs,
        warmup_rpcs=args.rpcs // 10,
    )
    metrics = client.run()
    print(f"system      : {args.system}")
    print(f"chain       : {' -> '.join(names) or '(none)'}")
    print(f"concurrency : {args.concurrency}")
    print(f"completed   : {metrics.completed} (aborted {metrics.aborted})")
    print(f"rate        : {metrics.throughput_krps:.1f} krps")
    print(f"median      : {metrics.latency.median_us():.1f} us")
    print(f"p99         : {metrics.latency.percentile(99) * 1e6:.1f} us")
    return 0


def cmd_faults(args) -> int:
    from .faults import (
        default_crash_plan,
        default_retry_policy,
        load_fault_plan,
        run_recovery_scenario,
    )

    if args.plan:
        # every malformed-plan failure mode (unreadable file, bad JSON,
        # unknown kinds, negative times, overlapping transient reverts)
        # surfaces as ADN610 diagnostics, never a traceback
        plan, diagnostics = load_fault_plan(args.plan)
        if plan is None:
            for diagnostic in diagnostics:
                print(diagnostic.format_text())
            print(f"{len(diagnostics)} error(s)")
            return 1
    else:
        plan = default_crash_plan(seed=args.seed, crash_at_s=args.crash_at)
    result = run_recovery_scenario(
        seed=args.seed,
        total_rpcs=args.rpcs,
        concurrency=args.concurrency,
        table_rows=args.table_rows,
        fault_plan=plan,
        retry_policy=default_retry_policy(seed=args.seed),
    )
    metrics = result.metrics
    stats = result.stack.retry_stats
    print("fault plan:")
    for event in result.fault_plan.events:
        duration = (
            f" for {event.duration_s * 1e3:.1f} ms"
            if event.duration_s is not None
            else ""
        )
        print(f"  t={event.at_s * 1e3:8.2f} ms  {event.kind} "
              f"{event.target}{duration}")
    print("timeline:")
    for entry in result.timeline:
        detail = f"  ({entry.detail})" if entry.detail else ""
        print(f"  t={entry.at_s * 1e3:8.2f} ms  {entry.action:7s} "
              f"{entry.kind} {entry.target}{detail}")
    print()
    print(f"workload    : {metrics.completed}/{metrics.issued} completed "
          f"(aborted {metrics.aborted})")
    print(f"data plane  : {result.stack.rpcs_lost} attempts lost, "
          f"{stats.retries} retries, {stats.timeouts} timeouts, "
          f"{result.stack.duplicate_server_executions} duplicate "
          f"server executions")
    print(f"amplification: {stats.amplification():.2f}x "
          f"({stats.attempts} attempts / {stats.logical_calls} calls)")
    print(f"tail writes : {result.checkpointer.tail_writes_lost} "
          f"delta(s) lost with the crashed memory")
    print()
    report = result.report
    if args.json:
        _write_bench_json(
            args.json,
            "faults",
            args.seed,
            {
                "rpcs": args.rpcs,
                "concurrency": args.concurrency,
                "table_rows": args.table_rows,
                "events": [
                    {
                        "at_s": event.at_s,
                        "kind": event.kind,
                        "target": event.target,
                        "duration_s": event.duration_s,
                    }
                    for event in result.fault_plan.events
                ],
            },
            {
                "issued": metrics.issued,
                "completed": metrics.completed,
                "aborted": metrics.aborted,
                "rpcs_lost": result.stack.rpcs_lost,
                "retries": stats.retries,
                "timeouts": stats.timeouts,
                "attempts": stats.attempts,
                "logical_calls": stats.logical_calls,
                "amplification": round(stats.amplification(), 4),
                "duplicate_server_executions": (
                    result.stack.duplicate_server_executions
                ),
                "tail_writes_lost": result.checkpointer.tail_writes_lost,
                "recovery": None if report is None else {
                    "machine": report.machine,
                    "unavailability_ms": report.unavailability_s * 1e3,
                    "detection_latency_ms": (
                        None if report.detection_latency_s is None
                        else report.detection_latency_s * 1e3
                    ),
                    "rows_restored": report.rows_restored,
                    "deltas_replayed": report.deltas_replayed,
                    "elements_moved": list(report.elements_moved),
                },
            },
        )
    if report is None:
        print("no recovery was triggered")
        return 1
    print(report.summary())
    return 0


def cmd_chaos(args) -> int:
    """Seeded multi-fault chaos soak over the control-resilience
    scenario: overlapping faults on the data host and the leader
    controller, with failover, journaled recovery resumption, and the
    epoch fence all armed. The soak-level invariant — zero stale plans
    *applied* — is the split-brain counter the run exits nonzero on."""
    from .control.resilience import run_chaos_soak

    soak = run_chaos_soak(
        trials=args.trials,
        base_seed=args.seed,
        horizon_s=args.horizon,
        events=args.events,
        total_rpcs=args.rpcs,
        standby=not args.no_standby,
        fence_epochs=not args.no_fence,
    )
    print(f"chaos soak: {args.trials} trial(s), base seed {args.seed}, "
          f"{args.events} fault(s)/trial")
    for trial in soak["trials"]:
        kinds = ", ".join(
            f"{event['kind']}({event['target'] or 'fabric'})"
            for event in trial["events"]
        )
        print(f"  seed {trial['seed']:>4}: {kinds}")
        print(f"    goodput {trial['goodput_fraction']:.3f}  "
              f"recoveries {trial['recoveries']}  "
              f"failovers {trial['failovers']}  "
              f"stale rejected/applied "
              f"{trial['stale_plans_rejected']}/"
              f"{trial['stale_plans_applied']}  "
              f"sig {trial['signature'][:12]}")
    print()
    print(f"total recoveries     : {soak['total_recoveries']}")
    print(f"total failovers      : {soak['total_failovers']}")
    print(f"stale plans rejected : {soak['total_stale_rejected']}")
    print(f"stale plans applied  : {soak['total_stale_applied']} "
          f"(split-brain counter; must be 0)")
    print(f"min goodput fraction : {soak['min_goodput_fraction']:.3f}")
    if args.json:
        _write_bench_json(
            args.json,
            "chaos",
            args.seed,
            {
                "trials": args.trials,
                "events_per_trial": args.events,
                "horizon_s": args.horizon,
                "rpcs": args.rpcs,
                "standby": not args.no_standby,
                "fence_epochs": not args.no_fence,
            },
            soak,
        )
    return 1 if soak["total_stale_applied"] else 0


def _sweep_load(args) -> Tuple[Tuple[float, ...], float]:
    """``overload``/``offload``'s ``--multipliers`` as numbers, and
    ``--duration``, each checked to be finite and greater than 0: a zero
    multiplier has no arrival rate, an infinite one never finishes
    offering load, and a sweep needs a duration and at least one point."""
    multipliers = []
    for part in args.multipliers.split(","):
        if not part.strip():
            continue
        try:
            multipliers.append(float(part))
        except ValueError:
            raise AdnError(
                f"--multipliers wants comma-separated numbers, "
                f"got {part.strip()!r}"
            ) from None
    if not multipliers:
        raise AdnError("--multipliers wants at least one number")
    checked = [("--multipliers", value) for value in multipliers]
    for option, value in checked + [("--duration", args.duration)]:
        if not (math.isfinite(value) and value > 0):
            raise AdnError(
                f"{option} wants a finite number greater than 0, "
                f"got {value:g}"
            )
    return tuple(multipliers), args.duration


def cmd_overload(args) -> int:
    from .overload.sweep import (
        SweepConfig,
        format_sweep,
        run_overload_sweep,
    )

    multipliers, duration = _sweep_load(args)
    config = SweepConfig(
        multipliers=multipliers,
        duration_s=duration,
        seed=args.seed,
    )
    baseline = run_overload_sweep(protected=False, config=config)
    protected = run_overload_sweep(protected=True, config=config)
    print(format_sweep(baseline))
    print()
    print(format_sweep(protected))
    print()
    baseline_peak = max(p.goodput_rps for p in baseline)
    protected_peak = max(p.goodput_rps for p in protected)
    at_max = multipliers[-1]
    base_end = baseline[-1].goodput_rps
    prot_end = protected[-1].goodput_rps
    print(
        f"at {at_max:.1f}x offered load: baseline keeps "
        f"{base_end / baseline_peak:7.1%} of its peak goodput, "
        f"protected keeps {prot_end / protected_peak:7.1%}"
    )
    if args.json:
        from dataclasses import asdict

        _write_bench_json(
            args.json,
            "overload",
            args.seed,
            asdict(config),
            {
                "baseline": [asdict(point) for point in baseline],
                "protected": [asdict(point) for point in protected],
            },
        )
    return 0


def cmd_offload(args) -> int:
    from dataclasses import asdict

    from .offload.sweep import (
        SHED_POINTS,
        OffloadSweepConfig,
        format_comparison,
        run_offload_comparison,
    )

    multipliers, duration = _sweep_load(args)
    config = OffloadSweepConfig(
        multipliers=multipliers,
        duration_s=duration,
        seed=args.seed,
    )
    results = run_offload_comparison(config)
    print(format_comparison(results))
    print()
    at_max = multipliers[-1]
    server_end = results["server"][-1]
    nic_end = results["nic"][-1]
    print(
        f"at {at_max:.1f}x offered load: moving the shed point into the "
        f"NIC lifts goodput {server_end.goodput_rps:.0f} -> "
        f"{nic_end.goodput_rps:.0f} rps and cuts host CPU per admitted "
        f"RPC {server_end.host_cpu_ms_per_ok:.3f} -> "
        f"{nic_end.host_cpu_ms_per_ok:.3f} ms"
    )
    if args.json:
        _write_bench_json(
            args.json,
            "offload",
            args.seed,
            asdict(config),
            {
                shed_at: [point.to_dict() for point in results[shed_at]]
                for shed_at in SHED_POINTS
            },
        )
    return 0


def cmd_graph(args) -> int:
    from .graph import solve_graph_placement
    from .graph.lint import lint_graph, load_graph_spec, spec_cluster_block
    from .graph.placement import default_machine_pool
    from .graph.scenario import MESH_SCHEMA, bookinfo_graph, hotel_mesh_graph
    from .lint import Severity

    schema = _schema_from_args(args.field) if args.field else MESH_SCHEMA
    threshold = Severity.from_name(args.fail_on)
    if args.spec:
        where = args.spec
        graph, spec_diags = load_graph_spec(args.spec)
    else:
        where = f"<demo:{args.demo}>"
        graph = (
            bookinfo_graph() if args.demo == "bookinfo"
            else hotel_mesh_graph()
        )
        spec_diags = []
    program = load_stdlib_at_entries(schema=schema)
    if graph is None:
        # the spec never became a graph; report ADN600 and stop — same
        # exit-code rule as every other path
        failed = _fails(spec_diags, threshold)
        if args.format == "json":
            print(json.dumps({
                "graph": None,
                "ok": not failed,
                "errors": [d.to_dict() for d in spec_diags],
                "lint": [],
            }, indent=2))
        else:
            for diagnostic in spec_diags:
                print(diagnostic.format_text(), file=sys.stderr)
        return 1 if failed else 0
    errors, diagnostics, analysis = lint_graph(
        graph, program, schema, path=where,
        cluster=spec_cluster_block(args.spec) if args.spec else None,
        analyze=args.check,
    )
    placement = None
    if not errors and not args.no_place:
        placement = solve_graph_placement(
            graph,
            program,
            schema,
            strategy=args.strategy,
            machines=default_machine_pool(args.machines),
        )
    failed = _fails(errors + diagnostics, threshold)

    if args.format == "json":
        payload = {
            "graph": graph.to_dict(),
            "ok": not failed,
            "errors": [d.to_dict() for d in errors],
            "lint": [d.to_dict() for d in diagnostics],
            "entry": graph.entry_services(),
            "depth": graph.depth(),
        }
        if analysis is not None:
            payload["analysis"] = {
                "worst_amplification": analysis.worst_amplification,
                "worst_path": list(analysis.worst_path),
                "amplification": {
                    f"{src}->{dst}": bound
                    for (src, dst), bound in sorted(
                        (key, edge.amplification_bound)
                        for key, edge in analysis.edges.items()
                    )
                },
                "live_fields": {
                    service: sorted(fields)
                    for service, fields in sorted(analysis.live.items())
                },
                "analysis_ms": analysis.analysis_ms,
            }
        if placement is not None:
            payload["placement"] = placement.to_dict()
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    order = graph.topological_order()
    print(f"graph {graph.name}: {len(graph.services)} services, "
          f"{len(graph.edges)} edges, depth {graph.depth()} "
          f"(entry: {', '.join(graph.entry_services())})")
    for service in order:
        spec = graph.services[service]
        extras = []
        if spec.replicas != 1:
            extras.append(f"x{spec.replicas}")
        if placement is not None:
            extras.append(f"@{placement.machine_of(service)}")
        elif spec.machine is not None:
            extras.append(f"@{spec.machine}")
        print(f"  service {service:16s} {' '.join(extras)}")
    for edge in graph.edges:
        knobs = []
        if edge.deadline_budget_ms is not None:
            knobs.append(f"deadline={edge.deadline_budget_ms:g}ms")
        if edge.retries:
            knobs.append(f"attempts={edge.max_attempts}")
        if edge.per_attempt_timeout_ms is not None:
            knobs.append(f"timeout={edge.per_attempt_timeout_ms:g}ms")
        if edge.admission:
            knobs.append("admission")
        if edge.breaker:
            knobs.append("breaker")
        if edge.offload is not None:
            knobs.append(f"offload={edge.offload}")
        if not edge.required:
            knobs.append("optional")
        chain = " -> ".join(edge.elements) or "(no elements)"
        print(f"  edge {edge.name}: {chain}"
              + (f"  [{', '.join(knobs)}]" if knobs else ""))
        if placement is not None:
            for segment in placement.edge_plans[edge.key].segments:
                print(f"    [{segment.platform.value}@{segment.machine}] "
                      + ", ".join(segment.elements))
    if analysis is not None:
        path_text = " -> ".join(analysis.worst_path) or "(none)"
        print(
            f"  analysis: worst retry amplification "
            f"{analysis.worst_amplification:g}x via {path_text} "
            f"({analysis.analysis_ms:.1f} ms)"
        )
        for service in order:
            live = analysis.live.get(service)
            if live is not None:
                print(f"    live@{service}: {', '.join(sorted(live))}")
    for diagnostic in errors:
        print(diagnostic.format_text(), file=sys.stderr)
    for diagnostic in diagnostics:
        print(diagnostic.format_text())
    if diagnostics or errors:
        print(f"{len(errors)} error(s), {len(diagnostics)} lint "
              f"finding(s) (fail threshold: {threshold.value})")
    return 1 if failed else 0


def _add_fields(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--field",
        action="append",
        metavar="NAME:TYPE",
        help="RPC schema field (repeatable); default: "
        "payload:bytes username:str obj_id:int",
    )


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("file")
    check.add_argument("--analyze", action="store_true",
                       help="print per-element analyses")
    check.add_argument("--types", action="store_true",
                       help="run the abstract-interpretation type checker "
                       "(ADN501-ADN505) over elements and chains")
    check.add_argument(
        "--fail-on", choices=["error", "warning", "hint"], default="error",
        help="with --types: exit nonzero when any finding is at least "
        "this severe",
    )
    check.add_argument("--stdlib", action="store_true",
                       help="with --types: also check every "
                       "standard-library element")
    check.add_argument(
        "--graph", metavar="SPEC",
        help="also check a service-graph topology spec against this "
        "file's elements (interprocedural ADN600-ADN606 analysis)",
    )
    check.add_argument("--no-stdlib", action="store_true",
                       help="do not merge the standard element library")
    check.add_argument("--format", choices=["text", "json"], default="text")
    _add_fields(check)


def _lint_arguments(lint: argparse.ArgumentParser) -> None:
    lint.add_argument("files", nargs="*", metavar="FILE")
    lint.add_argument(
        "--explain", metavar="ADNxxx",
        help="print a rule's description, default severity, and a "
        "minimal triggering example, then exit",
    )
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument(
        "--fail-on", choices=["error", "warning", "hint"], default="error",
        help="exit nonzero when any finding is at least this severe",
    )
    lint.add_argument("--no-stdlib", action="store_true",
                      help="do not resolve chain references via the stdlib")
    lint.add_argument("--stdlib", action="store_true",
                      help="also lint every standard-library element")
    lint.add_argument("--smartnics", action="store_true")
    lint.add_argument("--switch", action="store_true")
    lint.add_argument("--no-kernel", action="store_true",
                      help="cluster has no kernel offload")
    lint.add_argument("--no-sidecars", action="store_true",
                      help="cluster has no sidecar proxies")
    lint.add_argument("--no-engine", action="store_true",
                      help="cluster has no userspace engine (proxyless)")
    lint.add_argument("--standby-controller", action="store_true",
                      help="cluster runs a warm-standby controller pair "
                      "(silences ADN407)")
    _add_fields(lint)


def _fmt_arguments(fmt: argparse.ArgumentParser) -> None:
    fmt.add_argument("file")
    fmt.add_argument("--in-place", action="store_true")


def _compile_arguments(compile_: argparse.ArgumentParser) -> None:
    compile_.add_argument("file")
    compile_.add_argument("--element", help="compile only this element")
    compile_.add_argument(
        "--emit", choices=["python", "ebpf", "nic", "p4", "wasm"],
        help="print generated source for this backend",
    )
    compile_.add_argument(
        "--explain", action="store_true",
        help="run the full pass pipeline (incl. fusion) and print the "
        "per-pass report for each chain",
    )
    compile_.add_argument(
        "--verify", action="store_true",
        help="translation-validate every pass (abstract environments + "
        "concolic replay); refuse to emit artifacts and exit nonzero "
        "if any pass miscompiles",
    )
    _add_fields(compile_)


def _plan_arguments(plan: argparse.ArgumentParser) -> None:
    plan.add_argument("file")
    plan.add_argument("--app")
    plan.add_argument(
        "--strategy",
        choices=["software", "inapp", "offload", "scaleout"],
        default="software",
    )
    plan.add_argument("--smartnics", action="store_true")
    plan.add_argument("--switch", action="store_true")
    plan.add_argument("--replicas", type=int, default=1)
    _add_fields(plan)


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument(
        "--chain", default="Logging,Acl,Fault",
        help="comma-separated stdlib elements",
    )
    bench.add_argument(
        "--system", choices=["adn", "envoy", "grpc"], default="adn"
    )
    bench.add_argument("--concurrency", type=int, default=128)
    bench.add_argument("--rpcs", type=int, default=4000)
    _add_fields(bench)


def _faults_arguments(faults: argparse.ArgumentParser) -> None:
    faults.add_argument(
        "--plan", metavar="PLAN.json",
        help="fault plan JSON (default: crash stats-host at --crash-at)",
    )
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument("--rpcs", type=int, default=3000)
    faults.add_argument("--concurrency", type=int, default=4)
    faults.add_argument(
        "--table-rows", type=int, default=500,
        help="resident state rows that predate the workload",
    )
    faults.add_argument(
        "--crash-at", type=float, default=0.01, metavar="SECONDS",
        help="when the default plan crashes stats-host",
    )
    faults.add_argument(
        "--json", metavar="OUT",
        help="also write the run's metrics as stable JSON",
    )


def _chaos_arguments(chaos: argparse.ArgumentParser) -> None:
    chaos.add_argument("--trials", type=int, default=5)
    chaos.add_argument("--seed", type=int, default=0, help="base seed")
    chaos.add_argument(
        "--events", type=int, default=3,
        help="overlapping faults per trial",
    )
    chaos.add_argument("--rpcs", type=int, default=800)
    chaos.add_argument(
        "--horizon", type=float, default=2.0, metavar="SECONDS",
        help="per-trial simulated horizon",
    )
    chaos.add_argument(
        "--no-standby", action="store_true",
        help="disable the warm-standby controller (failover off)",
    )
    chaos.add_argument(
        "--no-fence", action="store_true",
        help="disable epoch fencing (stale plans apply; the hazard demo)",
    )
    chaos.add_argument(
        "--json", metavar="OUT",
        help="also write the soak results as stable JSON",
    )


def _overload_arguments(overload: argparse.ArgumentParser) -> None:
    overload.add_argument(
        "--multipliers", default="0.5,1.0,1.5,3.0",
        help="offered-load multiples of nominal capacity",
    )
    overload.add_argument("--duration", type=float, default=0.1)
    overload.add_argument("--seed", type=int, default=1)
    overload.add_argument(
        "--json", metavar="OUT",
        help="also write the sweep points as stable JSON",
    )


def _offload_arguments(offload: argparse.ArgumentParser) -> None:
    offload.add_argument(
        "--multipliers", default="0.5,1.0,2.0,3.0",
        help="offered-load multiples of nominal capacity",
    )
    offload.add_argument("--duration", type=float, default=0.1)
    offload.add_argument("--seed", type=int, default=1)
    offload.add_argument(
        "--json", metavar="OUT",
        help="also write the comparison points as stable JSON",
    )


def _graph_arguments(graph: argparse.ArgumentParser) -> None:
    graph.add_argument(
        "spec", nargs="?",
        help="topology spec JSON (see docs/graphs.md); omit to use "
        "a built-in demo graph",
    )
    graph.add_argument(
        "--demo", choices=["bookinfo", "hotel-mesh"],
        default="bookinfo",
        help="built-in graph to use when no spec is given",
    )
    graph.add_argument(
        "--strategy",
        choices=["software", "inapp", "offload", "scaleout"],
        default="software",
    )
    graph.add_argument(
        "--machines", type=int, default=4,
        help="size of the machine pool for the placement solve",
    )
    graph.add_argument(
        "--no-place", action="store_true",
        help="validate and lint only; skip the placement solve",
    )
    graph.add_argument(
        "--check", action="store_true",
        help="run the interprocedural analyzer (ADN600-ADN606): "
        "propagate abstract field environments across edges, bound "
        "retry amplification per path, check deadline budgets, "
        "breaker coverage, fate coherence, and cross-service state",
    )
    graph.add_argument(
        "--fail-on", choices=["error", "warning", "hint"],
        default="error",
        help="exit nonzero when any lint finding is at least this severe "
        "(chain errors always fail)",
    )
    graph.add_argument("--format", choices=["text", "json"], default="text")
    _add_fields(graph)


#: command name -> (help text, arguments function, handler), in the
#: order ``repro --help`` lists them
COMMANDS = {
    "check": ("parse and validate a DSL file", _check_arguments, cmd_check),
    "lint": (
        "static analysis: state races, dead state, placement",
        _lint_arguments, cmd_lint,
    ),
    "fmt": ("pretty-print a DSL file", _fmt_arguments, cmd_fmt),
    "compile": ("compile elements", _compile_arguments, cmd_compile),
    "plan": ("solve placement for an app", _plan_arguments, cmd_plan),
    "bench": ("quick simulated run", _bench_arguments, cmd_bench),
    "faults": (
        "crash a machine mid-workload; show detection and recovery",
        _faults_arguments, cmd_faults,
    ),
    "chaos": (
        "seeded multi-fault soak with controller failover and "
        "epoch fencing; exits nonzero on any split-brain application",
        _chaos_arguments, cmd_chaos,
    ),
    "overload": (
        "goodput sweep: baseline collapse vs protected degradation",
        _overload_arguments, cmd_overload,
    ),
    "offload": (
        "shed-point comparison: host-only shedding vs a SmartNIC "
        "running the chain's offloadable prefix",
        _offload_arguments, cmd_offload,
    ),
    "graph": (
        "load/validate a service-graph topology; show edges, "
        "chains, and the solved cross-service placement",
        _graph_arguments, cmd_graph,
    ),
}


def build_parser(
    commands: Optional[List[str]] = None,
) -> argparse.ArgumentParser:
    """The ``repro`` parser with a subparser for each of ``commands``
    (all of them by default). A parser for fewer commands still names
    every command in its usage line, so an error the top-level parser
    reports reads the same either way."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application Defined Networks — compiler and tools",
    )
    names = list(COMMANDS) if commands is None else commands
    partial = {}
    if len(names) < len(COMMANDS):
        partial["metavar"] = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, **partial)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # building every subparser costs several times the one a call runs;
    # help and errors without a known command need the full parser
    known = [argv[0]] if argv and argv[0] in COMMANDS else None
    args = build_parser(known).parse_args(argv)
    try:
        return args.func(args)
    except AdnError as error:
        # an error inside a stdlib entry names the entry
        where = getattr(error, "path", "")
        prefix = f"{where}: " if where else ""
        print(f"{prefix}error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
