"""Closed-loop benchmark of cfaudit's select, prove/verify session and report.

    python3 perfbench/run.py --workload faulty_channel --seed 1 --seconds 55 --trace 0

One caller in one process, no threads, runs rounds back to back.  A round is

* a select on a fresh prior trace: what ``cfaudit select --policy top`` does
  after parsing (``encode_raw``, ``enumerate_candidates``, the policy and
  ``estimate_savings`` per chosen spec);
* a session on a fresh 20k-transfer trace with the specs just selected:
  ``open_session`` -> ``Prover.handle_request``/``run`` -> ``Channel`` ->
  ``verify_slice`` on every delivered frame -> ``assemble(cfg=...)``;
* the report ``cfaudit simulate`` writes (``build_report(...,
  include_baseline=True)``).

One ``Prover`` and one ``Verifier`` live for the whole run.  Traces come from
``workload.generate_trace`` seeded by --seed and the round index; they are
made outside the timed window and never repeat within a run, so a cache keyed
on trace content cannot look like a win.  Every output is checked outside the
timed window; a round with an exception or a wrong output counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 records spans on every
other schedule cycle by wrapping the names ``protocol``, ``selection`` and
``metrics`` look up at call time, reports the per-layer metrics and the
tracing overhead (traced against untraced cycles of the same run), and
writes the spans to ``perfbench/out/``.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MODULES = ("cfg", "codec", "engine", "errors", "fixtures", "metrics", "model",
           "oracle", "protocol", "selection", "workload")

SESSION_STEPS = 20_000
SETUP_REPS = 11
# Engine == oracle, select savings and report bytes are re-derived
# independently on every CHECK_EVERY-th round (a benign one on faulty_channel).
CHECK_EVERY = 8
ROGUE_EDGE = (0x7F00, 0x7F10)  # in the address range, in neither fixture CFG

FAULT_SCHEDULE = (
    "benign", "flip", "drop_middle", "drop_final",
    "replay", "swap", "rogue", "keep_specs",
)
EXPECTED_OUTCOME = {
    "benign": "authentic_and_valid",
    "flip": "auth_failure",
    "drop_middle": "auth_failure",
    "drop_final": "incomplete",
    "replay": "authentic_and_valid",
    "swap": "auth_failure",
    "rogue": "authentic_but_invalid_path",
    "keep_specs": "authentic_and_valid",
}
REJECTIONS = ("malformed", "after_final", "bad_seq", "bad_mac")
OUTCOMES = ("authentic_and_valid", "authentic_but_invalid_path",
            "auth_failure", "incomplete", "raised")


@dataclass(frozen=True)
class Workload:
    fixture: str  # "sensor" or "branchy": CFG and prior-trace profile
    len_range: tuple[int, int]
    n_paths: int
    # Byte metrics come from the first byte_rounds rounds only, so they repeat
    # exactly for one seed whatever the machine's speed.  Every run plays at
    # least that many.  Sensor bytes hang on the few random loop exits (about
    # one per 600 transfers): across ten seeds their interquartile range is
    # 4% of the median after 48 rounds and 2.5% after 96, so they take 144.
    # Branchy bytes spread 0.9% after 24.
    byte_rounds: int
    schedule: tuple[str, ...] = ("benign",)


# faulty_channel's benign, replay and rogue sessions also carry the sensor
# regime (one loop collapsing to [symbol, count]).  A separate benign-only
# sensor workload would load the same layers, and with it three workloads
# fit the run budget only at 30 s per run, too short for steady timings on
# a shared host (see README.md).
WORKLOADS = {
    "branchy_diamonds": Workload("branchy", (2, 16), 8, 24),
    "faulty_channel": Workload("sensor", (10, 16), 1, 144, FAULT_SCHEDULE),
}


# --- spans -----------------------------------------------------------------

class Tracer:
    """Span and counter recorder.

    ``open``/``close`` return ``perf_counter`` timestamps, so the round code
    takes its timings from the same calls whether spans are recorded or not.
    Spans are ``[name, start, end, parent, session]`` lists kept in memory.
    """

    def __init__(self) -> None:
        self.active = False
        self.session: int | None = None
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def open(self, name: str) -> float:
        t = time.perf_counter()
        if self.active:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, t, None, parent, self.session])
            self._stack.append(len(self.spans) - 1)
        return t

    def close(self) -> float:
        t = time.perf_counter()
        if self.active:
            self.spans[self._stack.pop()][2] = t
        return t

    def unwind(self) -> None:
        """Close the spans an exception left open."""
        while self.active and self._stack:
            self.close()

    def timed(self, name: str, fn, *args, **kwargs):
        start = self.open(name)
        out = fn(*args, **kwargs)
        return out, self.close() - start

    def count(self, name: str, value: float = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, module, attr: str, name: str | None, on_result=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``name`` (none if None) and passes (result, args) to ``on_result``."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close()
            if on_result is not None:
                on_result(result, args)
            return result

        self._wrapped.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._wrapped):
            setattr(module, attr, fn)
        self._wrapped.clear()


class GcClock:
    """The collector's runs and pause time, counted through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1


def instrument(b: "Bench", tr: Tracer) -> list:
    """Wrap the library names the layers look up at call time.  Returns the
    list the prover's engine outputs are parked in; they are counted after
    the round, so counting never sits inside a span."""
    lib = b.lib
    prover_slices: list = []

    def engine_out(result, args):
        prover_slices.append((len(args[0]), result))

    tr.wrap(lib.protocol, "slice_compress", "engine.slice_compress", engine_out)
    tr.wrap(lib.protocol, "serialize_log", "codec.serialize_log",
            lambda r, a: tr.count("codec.payload_bytes", len(r)))
    tr.wrap(lib.protocol, "deserialize_log", "codec.deserialize_log")
    tr.wrap(lib.protocol, "expand", "engine.expand",
            lambda r, a: tr.count("engine.expanded_elements", len(r.elements)))
    tr.wrap(lib.protocol, "make_log", "model.make_log")
    tr.wrap(lib.protocol, "validate_against_cfg", "protocol.validate_against_cfg")
    tr.wrap(lib.selection, "oracle_compress", "oracle.oracle_compress")
    tr.wrap(lib.metrics, "slice_compress", "engine.slice_compress",
            lambda r, a: tr.count("metrics.engine_passes"))
    tr.wrap(lib.metrics, "Engine", None,
            lambda r, a: tr.count("metrics.engine_passes"))
    return prover_slices


# --- set-up ----------------------------------------------------------------

def load_library() -> SimpleNamespace:
    """Import cfaudit from the checkout's ``src`` tree."""
    return SimpleNamespace(**{m: importlib.import_module("cfaudit." + m) for m in MODULES})


def cold_setups(args) -> tuple[float, dict]:
    """setup_s and its layers: the median of SETUP_REPS cold starts, each a
    fresh interpreter running this file with --setup-only, timed from its
    spawn to the end of its set-up (perf_counter is one clock for all
    processes on the host)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(done.stdout.splitlines()[-1])
        samples.append((child["ready"] - t0, child["layers"]))
    layers = {k: statistics.median(l[k] for _, l in samples) for k in samples[0][1]}
    return statistics.median(s for s, _ in samples), layers


@dataclass
class Inputs:
    prior: list
    trace: list
    challenge: bytes
    fault_rng: random.Random


@dataclass
class Bench:
    lib: SimpleNamespace
    wl: Workload
    seed: int
    config: object
    graph: object
    prover: object
    verifier: object
    installed: tuple = ()  # specs the prover holds after the last request
    seen: set = field(default_factory=set)  # hashes of every trace handed out

    def inputs(self, i: int, tr: Tracer) -> Inputs:
        """Round i's inputs, a pure function of the seed and the rounds
        asked for so far (always setup's 0, the warm-up's -1, then 1, 2, ...)."""
        fixtures, workload = self.lib.fixtures, self.lib.workload
        profile = getattr(fixtures, self.wl.fixture + "_profile")()

        def walk(stream: str, steps: int) -> list:
            # A short sensor prior that never leaves the loop (about 1.4% of
            # them) equals every other such prior; draw again, so no trace
            # repeats within a run.
            for attempt in itertools.count():
                seed = random.Random(f"{self.seed}/{i}/{stream}/{attempt}").getrandbits(63)
                p = workload.WorkloadProfile(seed=seed, steps=steps,
                                             loop_bias=profile.loop_bias)
                trace = tr.timed("workload.generate_trace", workload.generate_trace,
                                 self.graph, p)[0]
                key = hash(tuple(trace))
                if key not in self.seen:
                    self.seen.add(key)
                    return trace

        rng = random.Random(f"{self.seed}/{i}/faults")
        return Inputs(walk("prior", profile.steps), walk("session", SESSION_STEPS),
                      rng.randbytes(16), rng)


def setup(wl: Workload, seed: int, tr: Tracer) -> tuple[Bench, Inputs, dict]:
    """Everything a cold start does before its first operation: import the
    library, parse the CFG document, make round 0's traces."""
    lib = load_library()
    fixtures = lib.fixtures
    doc = lib.cfg.write_cfg_document(getattr(fixtures, wl.fixture + "_cfg")())
    graph, build_s = tr.timed("cfg.build_cfg", lib.cfg.build_cfg, doc)
    if ROGUE_EDGE in graph.valid_pairs():
        raise SystemExit("perfbench: the rogue edge is a CFG edge")
    config = lib.model.EngineConfig()
    key = fixtures.DEMO_KEY
    b = Bench(lib, wl, seed, config, graph,
              lib.protocol.Prover(key, config), lib.protocol.Verifier(key, config))
    t0 = time.perf_counter()
    first = b.inputs(0, tr)
    return b, first, {"cfg.build_cfg.s": build_s,
                      "workload.generate_trace.s": time.perf_counter() - t0}


# --- one round ---------------------------------------------------------------

@dataclass
class Round:
    index: int
    kind: str
    transfers: int = 0
    select_s: float | None = None
    prove_s: float | None = None
    verify_s: float | None = None
    session_s: float | None = None
    report_s: float | None = None
    wire_bytes: int = 0
    slices: int = 0
    blockmem_bytes: int = 0
    raised: list = field(default_factory=list)  # operations that raised
    wrong: list = field(default_factory=list)  # outputs that failed a check
    # ROADMAP defect (a): a keep-specs session's assemble raises
    # UnknownSymbol, because the verifier forgets the installed specs.  It
    # fails the round but, being known, does not make the run incorrect.
    defect: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.raised or self.wrong or self.defect)


def select(b: Bench, prior: list, tr: Tracer):
    lib, config, (lo, hi) = b.lib, b.config, b.wl.len_range
    logs = [lib.codec.encode_raw(prior, config)]
    candidates, _ = tr.timed("selection.enumerate_candidates",
                             lib.selection.enumerate_candidates, logs, (lo, hi),
                             mode=config.mode)
    tr.count("selection.windows", sum(max(0, len(prior) - n + 1) for n in range(lo, hi + 1)))
    tr.count("selection.candidates", len(candidates))
    specs, _ = tr.timed("selection.policy", lib.selection.policy_top, candidates, b.wl.n_paths)
    tr.open("selection.estimate_savings")
    savings = [lib.selection.estimate_savings(s, logs, config) for s in specs]
    tr.close()
    return specs, savings


def faults_for(b: Bench, kind: str, frames: list[bytes], rng: random.Random):
    faults = b.lib.protocol.ChannelFaults()
    n = len(frames)
    if kind == "flip":
        k = rng.randrange(n)
        faults.flip[k] = rng.randrange(8 * len(frames[k]))
    elif kind == "drop_middle":
        faults.drop.add(n // 2)
    elif kind == "drop_final":
        faults.drop.add(n - 1)
    elif kind == "replay":
        faults.replay.add(rng.randrange(n))
    elif kind == "swap":
        faults.reorder.add(rng.randrange(n - 1))
    return faults


def session(b: Bench, r: Round, trace: list, specs, rng: random.Random,
            challenge: bytes, tr: Tracer):
    """One protocol session; fills r's figures as each part completes."""
    start = tr.open("session")
    request = b.verifier.open_session(() if r.kind == "keep_specs" else specs,
                                      challenge=challenge)
    p0 = tr.open("prove")
    b.prover.handle_request(request.encode())
    slices = b.prover.run(trace)
    r.prove_s = tr.close() - p0
    if request.blockmem:
        b.installed = tuple(specs)
    frames = [s.encode() for s in slices]
    r.wire_bytes = sum(len(f) for f in frames)
    r.slices = len(frames)
    r.blockmem_bytes = len(request.blockmem)
    channel = b.lib.protocol.Channel(faults_for(b, r.kind, frames, rng))
    for f in frames:
        channel.send(f)
    delivered = channel.drain()
    tr.count("protocol.frames", len(delivered))
    v0 = tr.open("verify")
    for f in delivered:
        b.verifier.verify_slice(f)
    verdict = b.verifier.assemble(cfg=b.graph)
    r.verify_s = tr.close() - v0
    r.session_s = tr.close() - start
    return slices, verdict


def _nested(a: tuple, b: tuple) -> bool:
    small, big = sorted((a, b), key=len)
    return any(big[i:i + len(small)] == small for i in range(len(big) - len(small) + 1))


def check_select(b: Bench, r: Round, prior, specs, savings) -> None:
    lib, config, (lo, hi) = b.lib, b.config, b.wl.len_range
    if not 1 <= len(specs) <= b.wl.n_paths:
        r.wrong.append(f"select chose {len(specs)} specs")
    if [s.id for s in specs] != list(range(1, len(specs) + 1)):
        r.wrong.append("select spec ids are not 1..n")
    if any(not lo <= s.length <= hi for s in specs):
        r.wrong.append("select spec length outside the range")
    if any(_nested(x.entries, y.entries) for j, x in enumerate(specs) for y in specs[j + 1:]):
        r.wrong.append("select chose nested specs")
    if r.index % CHECK_EVERY == 0:
        raw = lib.codec.encode_raw(prior, config).size_bytes
        for s, saved in zip(specs, savings):
            packed = lib.engine.compress_trace(prior, [s], config).size_bytes
            if saved != raw - packed - lib.codec.blockmem_block_bytes(s.length, config):
                r.wrong.append(f"estimate_savings of spec {s.id} disagrees with the engine")


def check_session(b: Bench, r: Round, trace, slices, verdict, rogue_at) -> None:
    lib, config = b.lib, b.config
    want = EXPECTED_OUTCOME[r.kind]
    if verdict.outcome.value != want:
        r.wrong.append(f"{r.kind}: verdict {verdict.outcome.value}, want {want}")
        return
    if r.kind == "rogue" and verdict.invalid_index != rogue_at:
        r.wrong.append(f"rogue: invalid_index {verdict.invalid_index}, want {rogue_at}")
    if want in ("authentic_and_valid", "authentic_but_invalid_path"):
        if verdict.raw_log != lib.codec.encode_raw(trace, config):
            r.wrong.append(f"{r.kind}: raw_log differs from the trace")
    if r.index % CHECK_EVERY == 0:
        engine = lib.engine.slice_compress(trace, b.installed, config)
        oracle = lib.oracle.oracle_slice_compress(trace, b.installed, config)
        if engine != oracle:
            r.wrong.append("engine slices differ from the oracle")
        fmt = lib.model.LogFormat.MEMORY_IMAGE
        if [s.payload for s in slices] != [lib.codec.serialize_log(x, config, fmt) for x in oracle]:
            r.wrong.append("prover payloads differ from the serialized oracle slices")


def check_report(b: Bench, r: Round, trace, report) -> None:
    lib, config = b.lib, b.config
    per_slice = config.slice_size_bytes // config.raw_element_bytes
    blockmem = len(lib.codec.serialize_blockmem(b.installed, config).data)
    expected = {
        "raw_bytes": config.raw_element_bytes * len(trace),
        "slice_count_baseline": max(1, math.ceil(len(trace) / per_slice)),
        "blockmem_bytes": blockmem,
        "total_bytes": report.compressed_bytes + blockmem,
    }
    if r.prove_s is not None:
        expected["slice_count"] = r.slices
    if r.index % CHECK_EVERY == 0:
        expected["compressed_bytes"] = lib.oracle.oracle_compress(
            trace, b.installed, config).size_bytes
    for name, value in expected.items():
        if getattr(report, name) != value:
            r.wrong.append(f"report {name} {getattr(report, name)}, want {value}")


def play_round(b: Bench, i: int, kind: str, inp: Inputs, tr: Tracer, traced: bool) -> Round:
    """Run round i, a ``kind`` session, and its select and report (spans on
    if ``traced``), then check every output with the tracer off."""
    r = Round(i, kind)
    trace, rogue_at = inp.trace, None
    if r.kind == "rogue":
        rogue_at = inp.fault_rng.randrange(len(trace))
        trace = trace[:rogue_at] + [b.lib.model.Transfer(*ROGUE_EDGE)] + trace[rogue_at:]
    r.transfers = len(trace)
    tr.session = i
    tr.active = traced
    selected = outcome = report = None
    try:
        # a failed operation is a measured outcome, so catch everything
        try:
            selected, r.select_s = tr.timed("select", select, b, inp.prior, tr)
        except Exception as exc:
            tr.unwind()
            r.raised.append(f"select: {exc!r}")
            return r
        try:
            outcome = session(b, r, trace, selected[0], inp.fault_rng, inp.challenge, tr)
        except Exception as exc:
            tr.unwind()
            tr.count("protocol.verdicts.raised")
            if r.kind == "keep_specs" and isinstance(exc, b.lib.errors.UnknownSymbol):
                r.defect = f"{r.kind} session: {exc!r}"
            else:
                r.raised.append(f"{r.kind} session: {exc!r}")
        else:
            tr.count("protocol.verdicts." + outcome[1].outcome.value)
            for _, reason in b.verifier.rejections:
                tr.count("protocol.rejections." + reason)
        try:
            report, r.report_s = tr.timed(
                "metrics.build_report", b.lib.metrics.build_report,
                "perfbench", trace, b.installed, b.config, include_baseline=True)
        except Exception as exc:
            tr.unwind()
            r.raised.append(f"report: {exc!r}")
    finally:
        tr.active = False
        tr.session = None
    check_select(b, r, inp.prior, *selected)
    if outcome is not None:
        check_session(b, r, trace, *outcome, rogue_at)
    if report is not None:
        check_report(b, r, trace, report)
    return r


# --- summaries -------------------------------------------------------------

def _spread(xs: list) -> str:
    """The median and the highest of p75/p90/p99 with at least ten samples
    above it, printed beside the fastest sample."""
    if not xs:
        return ""
    out = f"; median {statistics.median(xs):.6g}"
    for p in (99, 90, 75):
        if len(xs) * (100 - p) / 100 >= 10:
            return out + f", p{p} {statistics.quantiles(xs, n=100)[p - 1]:.6g}"
    return out


# A session part's work depends on the session kind only after the channel:
# the prover does the same work whatever then happens to its frames, while
# the verifier stops early on a rejected session.
PER_KIND = {"prove_s": False, "verify_s": True}


def _rate(rounds: list[Round], part: str, pick=min) -> tuple[float, int]:
    """Transfers/s of one part of the session: sessions are grouped by kind
    if the part's work depends on it (else pooled), and each group's median
    transfers over its fastest (``pick``) time are summed over the groups.
    On a one-kind schedule, and for prove, this is the fastest session's
    rate.  Returns the rate and the number of sessions it rests on."""
    groups: dict[str, list[Round]] = {}
    for r in rounds:
        if getattr(r, part) is not None:
            groups.setdefault(r.kind if PER_KIND[part] else "", []).append(r)
    n = sum(statistics.median(r.transfers for r in rs) for rs in groups.values())
    busy = sum(pick(getattr(r, part) for r in rs) for rs in groups.values())
    return (n / busy if busy else float("nan")), sum(len(rs) for rs in groups.values())


def end_to_end(rounds: list[Round], wl: Workload, setup_s: float) -> tuple[dict, list[str]]:
    """Timings are the fastest sample of the run (see ``_rate`` for the
    rates): the other processes of a shared host only ever add time, and on
    one they slow whole stretches of a run by up to 1.5x, which moves medians
    between runs far more than the fastest samples.  A session that raised
    gives no verify or session sample.  Bytes come from the first
    ``wl.byte_rounds`` rounds."""
    counted = [r for r in rounds if r.index < wl.byte_rounds]
    kt = sum(r.transfers for r in counted) / 1000
    failed = sum(1 for r in rounds if r.failed)
    rates = {k: _rate(rounds, part) for k, part in (("prove_tps", "prove_s"),
                                                      ("verify_tps", "verify_s"))}
    samples = {
        "session_s_min": ([r.session_s for r in rounds if r.session_s is not None], "s"),
        "select_s_min": ([r.select_s for r in rounds if r.select_s is not None], "s"),
        "report_s_min": ([r.report_s for r in rounds if r.report_s is not None], "s"),
    }
    m = {
        **{k: (v, "1/s") for k, (v, _) in rates.items()},
        **{k: (min(v, default=float("nan")), u) for k, (v, u) in samples.items()},
        "setup_s": (setup_s, "s"),
        "wire_bytes_per_kt": (sum(r.wire_bytes for r in counted) / kt, "B/kt"),
        "slices_per_kt": (sum(r.slices for r in counted) / kt, "1/kt"),
        "blockmem_bytes": (statistics.mean(r.blockmem_bytes for r in counted), "B"),
        "ok_frac": (1 - failed / len(rounds), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} cold starts",
        "wire_bytes_per_kt": f"first {len(counted)} rounds, {kt:g} kt",
        "slices_per_kt": f"first {len(counted)} rounds",
        "blockmem_bytes": f"mean over the first {len(counted)} requests",
        "ok_frac": f"failed_frac {failed / len(rounds):.4f} = {failed}/{len(rounds)} rounds",
        "peak_rss_mb": "ru_maxrss",
    }
    for (k, (_, n)), part in zip(rates.items(), ("prove_s", "verify_s")):
        notes[k] = (f"fastest of {n} sessions{' per kind' if PER_KIND[part] else ''}; "
                    f"at median times {_rate(rounds, part, statistics.median)[0]:.6g}")
    for k, (v, _) in samples.items():
        notes[k] = f"fastest of {len(v)} rounds" + _spread(v)
    lines = [f"{k} {v:.6g} {u}  ({notes[k]})" for k, (v, u) in m.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, lines


def per_layer(tr: Tracer, traced: list[Round], plain: list[Round], wl: Workload,
              setup_layers: dict, engine_out: dict, peak_kb: float) -> dict:
    n = max(1, len(traced))
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    under: dict[tuple[str, str], float] = {}
    for name, start, end, parent, _ in tr.spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + d
        if parent is not None:
            pname = tr.spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - d
            under[pname, name] = under.get((pname, name), 0.0) + d
    out: dict[str, tuple[float, str]] = {}
    for name in ("engine.slice_compress", "codec.serialize_log", "codec.deserialize_log",
                 "engine.expand", "model.make_log", "protocol.validate_against_cfg",
                 "selection.enumerate_candidates", "selection.policy",
                 "selection.estimate_savings", "oracle.oracle_compress",
                 "metrics.build_report"):
        out[name + ".s"] = (total.get(name, 0.0) / n, "s/round")
    out["protocol.prover_self.s"] = (self_s.get("prove", 0.0) / n, "s/round")
    out["protocol.verifier_self.s"] = (self_s.get("verify", 0.0) / n, "s/round")
    for stage, children in (("prove", ("engine.slice_compress", "codec.serialize_log")),
                            ("verify", ("codec.deserialize_log", "engine.expand",
                                        "model.make_log", "protocol.validate_against_cfg"))):
        whole = total.get(stage, 0.0) or float("nan")
        for c in children:
            out[f"share.{stage}.{c}"] = (under.get((stage, c), 0.0) / whole, "frac")
        own = "protocol.prover_self" if stage == "prove" else "protocol.verifier_self"
        out[f"share.{stage}.{own}"] = (self_s.get(stage, 0.0) / whole, "frac")
    c = tr.counts
    out["engine.transfers"] = (engine_out["transfers"] / n, "count/round")
    out["engine.elements_out"] = (engine_out["elements"] / n, "count/round")
    out["engine.replaced_share"] = (
        engine_out["covered"] / max(1, engine_out["transfers"]), "frac")
    for name, unit in (("codec.payload_bytes", "B/round"),
                       ("engine.expanded_elements", "count/round"),
                       ("protocol.frames", "count/round"),
                       ("selection.windows", "count/round"),
                       ("selection.candidates", "count/round"),
                       ("metrics.engine_passes", "count/round"),
                       ("gc.collections", "count/round")):
        out[name] = (c.get(name, 0) / n, unit)
    out["gc.pause_s"] = (c.get("gc.pause_s", 0.0) / n, "s/round")
    for reason in REJECTIONS:
        out["protocol.rejections." + reason] = (c.get("protocol.rejections." + reason, 0) / n,
                                                "count/round")
    for outcome in OUTCOMES:
        out["protocol.verdicts." + outcome] = (c.get("protocol.verdicts." + outcome, 0) / n,
                                               "count/round")
    out["protocol.assemble.peak_kb"] = (peak_kb, "KiB")
    for name, value in setup_layers.items():
        out[name] = (value, "s")
    traced_e2e, _ = end_to_end(traced, wl, 0.0)
    plain_e2e, _ = end_to_end(plain, wl, 0.0)
    for k in ("prove_tps", "verify_tps", "session_s_min", "select_s_min", "report_s_min"):
        t, p = traced_e2e[k]["value"], plain_e2e[k]["value"]
        # overhead as extra time: tps falls by it, durations grow by it
        ratio = p / t if k.endswith("tps") else t / p
        out[f"trace.overhead.{k}_pct"] = (100 * (ratio - 1), "%")
    out["trace.rounds"] = (len(traced), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# --- main ------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a cold set-up for setup_s: set up, print when done, exit
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfaudit" / "__init__.py").is_file():
        print(f"perfbench: no cfaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    tr = Tracer()

    if args.setup_only:
        layers = setup(wl, args.seed, tr)[2]
        print(json.dumps({"ready": time.perf_counter(), "layers": layers}))
        return 0
    setup_s, setup_layers = cold_setups(args)
    b, first, _ = setup(wl, args.seed, tr)

    # warm-up: one benign round on inputs no measured round uses
    play_round(b, -1, "benign", b.inputs(-1, tr), tr, False)

    parked = instrument(b, tr) if traced_run else []
    engine_out = {"transfers": 0, "elements": 0, "covered": 0}
    clock = GcClock()
    if traced_run:
        gc.callbacks.append(clock)
    # stop on a whole schedule cycle (an untraced/traced pair when tracing)
    cycle = len(wl.schedule) * (2 if traced_run else 1)
    rounds: list[Round] = []
    traced: list[Round] = []
    peak_kb = float("nan")
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < wl.byte_rounds or i % cycle or time.perf_counter() < deadline:
        inp = first if i == 0 else b.inputs(i, tr)
        gc.collect()
        on = traced_run and (i // len(wl.schedule)) % 2 == 1
        gc_before = clock.collections, clock.pause_s
        r = play_round(b, i, wl.schedule[i % len(wl.schedule)], inp, tr, on)
        rounds.append(r)
        i += 1
        if not on:
            continue
        traced.append(r)
        tr.counts["gc.collections"] = (tr.counts.get("gc.collections", 0)
                                       + clock.collections - gc_before[0])
        tr.counts["gc.pause_s"] = tr.counts.get("gc.pause_s", 0.0) + clock.pause_s - gc_before[1]
        for n_in, logs in parked:
            engine_out["transfers"] += n_in
            engine_out["elements"] += sum(len(log.elements) for log in logs)
            engine_out["covered"] += n_in - sum(
                1 for log in logs for e in log.elements if type(e) is b.lib.model.RawPair)
        parked.clear()
        if math.isnan(peak_kb) and r.kind == "benign" and not r.failed:
            tracemalloc.start()
            b.verifier.assemble(cfg=b.graph)
            peak_kb = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
    if traced_run:
        gc.callbacks.remove(clock)
        tr.unwrap()

    failed = [r for r in rounds if r.failed]
    unexpected = [r for r in rounds if r.raised or r.wrong]
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"failed {len(failed)} unexpected {len(unexpected)}"
          + (" traced" if traced_run else ""))
    for r in (unexpected or failed)[:8]:
        why = r.raised + r.wrong + ([r.defect] if r.defect else [])
        print(f"  round {r.index} {r.kind}: {'; '.join(why)}")
    if traced_run:
        traced_ids = {r.index for r in traced}
        plain = [r for r in rounds if r.index not in traced_ids]
        metrics = per_layer(tr, traced, plain, wl, setup_layers, engine_out, peak_kb)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
        with path.open("w") as fh:
            for name, start, end, parent, sess in tr.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "session": sess}) + "\n")
        for k, v in metrics.items():
            print(f"{k} {v['value']:.6g} {v['unit']}")
        print(f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(rounds, wl, setup_s)
        print("\n".join(lines))
    # correct: every round succeeded or failed by the known defect only
    print(json.dumps({"correct": not unexpected, "attempted": len(rounds),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
