"""Command-line front end.

Subcommands:

    compress   trace document + spec file -> serialized log + metrics report
    expand     serialized log + spec file -> original trace document
    select     mine or statically derive a spec file from traces / a CFG
    simulate   generate a workload, run the full prover/verifier protocol
    monitor    check an access-event file against the write-protection rule
    stats      merge metrics report JSON files into one CSV on stdout

Every command is a thin shell over the library modules; exit status 0
means success (and, for simulate, an authentic-and-valid verdict).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cfg as cfgmod
from . import codec, files, metrics, protocol, selection, workload
from .engine import Engine, expand
from .errors import AuditError
from .model import MAX_SPEC_LEN, EngineConfig, Mode, Transfer
from .monitor import Region, RegionMap, run_monitor


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["pair", "dest"], default=None,
                   help="match mode (defaults to the input document header)")
    p.add_argument("--width", type=int, choices=[16, 32], default=None,
                   help="address width in bits")
    p.add_argument("--slice-size", type=int, default=256, metavar="N",
                   help="slice budget in bytes (default 256)")
    p.add_argument("--max-paths", type=int, default=8, metavar="N",
                   help="detector count bound / selection count (default 8)")
    p.add_argument("--retry-on-mismatch", action="store_true",
                   help="re-test a mismatching transfer against entry 0")


def _add_policy_flags(p: argparse.ArgumentParser, required: bool,
                      policy_help: str | None = None) -> None:
    p.add_argument("--policy", choices=selection.POLICIES, required=required, help=policy_help)
    p.add_argument("--threshold", type=float, default=100.0, metavar="T",
                   help="minimize replacement threshold in percent")
    p.add_argument("--budget", type=int, default=256, metavar="B",
                   help="block memory byte budget")
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=16)


def _config(args, mode: Mode | None = None, width: int | None = None) -> EngineConfig:
    return EngineConfig(
        mode=Mode(args.mode) if args.mode else (mode or Mode.PAIR),
        addr_width=args.width or width or 16,
        slice_size_bytes=args.slice_size,
        max_sub_paths=args.max_paths,
        retry_on_mismatch=args.retry_on_mismatch,
    )


def _load_specs(args, config: EngineConfig | None = None):
    """The run's config and the specs of the ``--specs`` file, if any.  The
    config is ``config``, else one whose mode defaults to the spec file's;
    a spec file that holds specs must be in the run's mode."""
    mode, specs = None, ()
    if args.specs:
        mode, specs = codec.parse_spec_document(Path(args.specs).read_text())
    config = config or _config(args, mode)
    if specs and mode is not config.mode:
        raise AuditError(f"spec file is {mode.value}-mode, run is {config.mode.value}-mode")
    return config, specs


def _write_report(args, report: metrics.MetricsReport, default_base: str) -> None:
    path = Path(args.report) if args.report else Path(default_base + ".report.json")
    path.write_text(metrics.report_to_json(report))
    print(metrics.format_report(report))
    print(f"report written to {path}")


def _cmd_compress(args) -> int:
    doc_mode, doc_width, trace = files.parse_trace_document(Path(args.trace).read_text())
    config, specs = _load_specs(args, _config(args, doc_mode, doc_width))
    engine = Engine(specs, config)
    engine.feed(trace)
    log = engine.finalize()
    data = codec.serialize_log(log, config)
    Path(args.out).write_bytes(data)
    report = metrics.build_report(
        Path(args.trace).stem, trace, specs, config, compressed=(log, engine.hits)
    )
    _write_report(args, report, args.out)
    return 0


def _cmd_expand(args) -> int:
    config, specs = _load_specs(args)
    log = codec.deserialize_log(Path(args.log).read_bytes(), config)
    raw = expand(log, specs, config)
    Path(args.out).write_text(
        files.write_trace_document(raw.elements, config.mode, config.addr_width)
    )
    print(f"expanded {len(log.elements)} elements to {len(raw.elements)} transfers")
    return 0


def _choose_specs(args, config: EngineConfig, logs, graph) -> list:
    """Mine ``logs`` (or rank ``graph`` for the static policy) once and run
    the chosen policy over the candidates."""
    if args.policy == "static":
        candidates = selection.static_candidates(graph)
    else:
        # no longer window can become a spec, and mining grows with the length
        if args.max_len > MAX_SPEC_LEN:
            raise AuditError(f"--max-len {args.max_len} is above {MAX_SPEC_LEN}, "
                             "the longest spec")
        candidates = selection.enumerate_candidates(
            logs, (args.min_len, args.max_len), mode=config.mode
        )
    return selection.choose(
        args.policy, candidates, args.max_paths, args.budget, args.threshold, config
    )


def _declared(args, flag: str, values: list):
    """The one value the trace files declare for ``flag``; files that
    disagree need the flag to settle it."""
    if getattr(args, flag) is None and len(set(values)) > 1:
        shown = ", ".join(sorted({str(getattr(v, "value", v)) for v in values}))
        raise AuditError(f"trace files declare different {flag}s ({shown}); pass --{flag}")
    return values[0] if values else None


def _cmd_select(args) -> int:
    docs, graph = [], None
    if args.policy == "static":
        if not args.cfg:
            raise AuditError("static policy needs --cfg")
        graph = cfgmod.build_cfg(Path(args.cfg).read_text())
    else:
        if not args.trace:
            raise AuditError(f"policy {args.policy} needs at least one --trace")
        docs = [files.parse_trace_document(Path(t).read_text()) for t in args.trace]
    # one config encodes every log, mines and estimates: flags win, else
    # the mode and width the trace files declare
    config = _config(args, _declared(args, "mode", [d[0] for d in docs]),
                     _declared(args, "width", [d[1] for d in docs]))
    logs = [codec.encode_raw(trace, config) for _, _, trace in docs]
    specs = _choose_specs(args, config, logs, graph)
    if logs:  # static specs have no prior log to estimate against
        for spec in specs:
            saved = selection.estimate_savings(spec, logs, config)
            print(f"spec {spec.id} len {spec.length} estimated_savings_bytes {saved}")
    Path(args.out).write_text(codec.write_spec_document(specs, config.mode))
    print(f"wrote {len(specs)} specs to {args.out}")
    return 0


def _non_negative(what: str, value: int) -> int:
    # a negative index would wrap onto another frame or bit, or match none
    if value < 0:
        raise AuditError(f"{what} {value} is negative")
    return value


def _parse_flip(text: str) -> tuple[int, int]:
    frame, sep, bit = text.partition(":")
    return (_non_negative("--flip frame", int(frame)),
            _non_negative("--flip bit", int(bit) if sep else 0))


def _cmd_simulate(args) -> int:
    graph = cfgmod.build_cfg(Path(args.cfg).read_text())
    config = _config(args)
    profile = workload.WorkloadProfile(
        seed=args.seed, steps=args.steps, loop_bias=args.loop_bias
    )
    trace = workload.generate_trace(graph, profile)
    if args.inject:
        addr_part, _, idx_part = args.inject.partition("@")
        src_s, _, dest_s = addr_part.partition(":")
        index = int(idx_part or 0)
        if not 0 <= index <= len(trace):
            raise AuditError(f"--inject index {index} outside 0..{len(trace)}")
        trace.insert(index, Transfer(int(src_s, 16), int(dest_s, 16)))

    if args.specs:
        _, specs = _load_specs(args, config)
    elif args.policy:
        specs = _choose_specs(args, config, [codec.encode_raw(trace, config)], graph)
    else:
        specs = ()

    faults = protocol.ChannelFaults(
        drop={_non_negative("--drop frame", s) for s in args.drop or ()},
        flip=dict(_parse_flip(f) for f in (args.flip or ())),
        replay={_non_negative("--replay frame", s) for s in args.replay or ()},
    )
    verdict = protocol.run_session(
        files.load_key(args.key), config, specs, trace, cfg=graph, faults=faults
    )

    report = metrics.build_report("simulate", trace, specs, config, include_baseline=True)
    _write_report(args, report, "simulate")
    detail = ""
    if verdict.invalid_index is not None:
        detail += f" invalid_index={verdict.invalid_index}"
    if verdict.reason:
        detail += f" reason={verdict.reason}"
    print(f"verdict {verdict.outcome.value}{detail}")
    return 0 if verdict.outcome is protocol.Outcome.AUTHENTIC_AND_VALID else 1


def _parse_region(text: str) -> Region:
    lo, _, hi = text.partition(":")
    return Region(int(lo, 16), int(hi, 16))


def _cmd_monitor(args) -> int:
    events = files.parse_event_document(Path(args.events).read_text())
    regions = RegionMap(tcb=_parse_region(args.tcb), blockmem=_parse_region(args.blockmem))
    index = run_monitor(events, regions)
    if index is None:
        print("ok")
        return 0
    print(f"reset_at {index}")
    return 1


def _cmd_stats(args) -> int:
    reports = [metrics.load_report(p) for p in args.reports]
    sys.stdout.write(metrics.reports_to_csv(reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfaudit",
        description="Control-flow log compression, streaming, and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a trace document")
    p.add_argument("trace")
    p.add_argument("--specs", help="sub-path spec file (optional)")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--report", help="metrics JSON path (default <out>.report.json)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("expand", help="expand a serialized log back to a trace")
    p.add_argument("log")
    p.add_argument("--specs", help="sub-path spec file used during compression")
    p.add_argument("-o", "--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("select", help="derive a sub-path spec file")
    _add_policy_flags(p, required=True)
    p.add_argument("--trace", action="append", help="prior trace document (repeatable)")
    p.add_argument("--cfg", help="CFG document (static policy)")
    p.add_argument("-o", "--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="end-to-end protocol run over a generated trace")
    p.add_argument("cfg")
    p.add_argument("--key", required=True, help="key file (32 bytes or 64 hex chars)")
    p.add_argument("--specs", help="spec file to install")
    _add_policy_flags(p, required=False,
                      policy_help="mine specs from the generated trace instead")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--loop-bias", type=float, default=1.0)
    p.add_argument("--inject", metavar="SRC:DEST@IDX",
                   help="splice an arbitrary transfer into the trace")
    p.add_argument("--drop", type=int, action="append", metavar="SEQ",
                   help="drop slice frame SEQ in transit")
    p.add_argument("--flip", action="append", metavar="SEQ[:BIT]",
                   help="flip one bit of slice frame SEQ in transit")
    p.add_argument("--replay", type=int, action="append", metavar="SEQ",
                   help="deliver slice frame SEQ twice")
    p.add_argument("--report", help="metrics JSON path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("monitor", help="check an access-event file")
    p.add_argument("events")
    p.add_argument("--tcb", required=True, metavar="LO:HI", help="hex bounds, inclusive")
    p.add_argument("--blockmem", required=True, metavar="LO:HI")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("stats", help="merge metrics reports into CSV on stdout")
    p.add_argument("reports", nargs="*")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
