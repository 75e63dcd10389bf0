"""Totality of the command line: every subcommand, fed arbitrary text and
bytes or a mutated fixture file in place of one of its input files, exits
0 or exits 1 with one ``error:`` line, and never raises out of
``cli.main``.  ``stats`` is also fed reports with one field edited.

``simulate`` and ``monitor`` may also exit 1 with their verdict on stdout
and nothing on stderr.  The fixture traces are cut to their first lines so
that each run stays in the millisecond range."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cfaudit.cli import main
from cfaudit.files import write_event_document
from cfaudit.fixtures import write_fixture_files
from cfaudit.monitor import AccessEvent

from test_cfg import IRREDUCIBLE_DOCUMENT, chain_document

TRACE_LINES = 120
# fragments of the documents' own syntax, so that a mutation often
# yields a near-miss rather than plain noise
TOKENS = [b"\n", b" ", b"0x", b"-", b"0", b"ffff", b"ffffffff", b"400", b"#",
          b"pair", b"dest", b"16", b"32", b"{", b"}", b"[", b"]", b",", b":", b'"']


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Well-formed bytes of every input kind, and the directory runs use."""
    root = tmp_path_factory.mktemp("cli")
    fx = write_fixture_files(root / "fx")
    out = {}
    for name in ("sensor", "branchy"):
        lines = fx[f"{name}.trace"].read_text().splitlines(keepends=True)
        fx[f"{name}.trace"].write_text("".join(lines[:TRACE_LINES]))
        out[f"{name}.trace"] = fx[f"{name}.trace"].read_bytes()
        out[f"{name}.cfg"] = fx[f"{name}.cfg"].read_bytes()
    out["static_demo.cfg"] = fx["static_demo.cfg"].read_bytes()
    # deeper than the recursion limit, and a cycle no back edge cuts
    out["chain.cfg"] = chain_document().encode()
    out["irreducible.cfg"] = IRREDUCIBLE_DOCUMENT.encode()
    out["demo.key"] = fx["demo.key"].read_bytes()
    specs, log, report = root / "s.specs", root / "c.bin", root / "r.json"
    assert call(["select", "--policy", "top", "--trace", fx["sensor.trace"],
                 "-o", specs])[0] == 0
    assert call(["compress", fx["sensor.trace"], "--specs", specs, "-o", log,
                 "--report", report])[0] == 0
    out["specs"], out["image"], out["report"] = (
        specs.read_bytes(), log.read_bytes(), report.read_bytes())
    out["events"] = write_event_document([
        AccessEvent(pc=0x9100, w_en=True, d_addr=0xA000),
        AccessEvent(pc=0x4000, w_en=True, d_addr=0xA000, dma_en=True, dma_addr=0xA010),
    ]).encode()
    work = root / "work"
    work.mkdir()
    return Seeds(out, work)


class Seeds(NamedTuple):
    out: dict  # seed kind -> bytes
    work: Path

    def __repr__(self):  # keeps a falsifying example short
        return f"Seeds({self.work})"


def call(argv):
    """``(exit code, stdout, stderr)`` of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@st.composite
def mutated(draw, seed: bytes):
    """``seed`` after up to four edits of its bytes or of its lines."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate", "lines"]))
        if op == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=8))
        elif op == "truncate":
            del data[at:]
        elif op == "lines":  # drop, repeat or move one line
            lines = data.splitlines(keepends=True)
            if lines:
                line = lines.pop(draw(st.integers(0, len(lines) - 1)))
                for _ in range(draw(st.integers(0, 2))):
                    lines.insert(draw(st.integers(0, len(lines))), line)
                data = bytearray(b"".join(lines))
    return bytes(data)


def content(seed: bytes):
    """``seed`` itself or mutated, or arbitrary bytes or text."""
    return st.one_of(
        mutated(seed),
        st.binary(max_size=48),
        st.text(max_size=48).map(str.encode),
    )


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def edited_json(draw, seed: bytes):
    """The JSON object ``seed`` with one field dropped, set to arbitrary
    JSON, or added, or an arbitrary JSON document."""
    doc = json.loads(seed)
    name = draw(st.sampled_from(sorted(doc)) | st.text(max_size=8))
    if draw(st.booleans()):
        doc.pop(name, None)
    else:
        doc[name] = draw(JSON)
    return json.dumps(draw(st.just(doc) | JSON)).encode()


def check(code, out, err, verdict=None):
    event("error" if err else f"exit {code}")
    if err:
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif code != 0:
        # a run that fails without an error line reports its verdict
        assert code == 1 and verdict and out.splitlines()[-1].startswith(verdict), out


def drive(data, seeds, command, inputs, extra=(), verdict=None, fuzz=content):
    """Write each input file (name -> seed kind), one of them with drawn
    content and the rest as their seeds, run ``command`` with ``{name}``
    placeholders filled in, and check it."""
    out, work = seeds
    fuzzed = data.draw(st.sampled_from(sorted(inputs)), label="fuzzed")
    paths = {}
    for name, kind in inputs.items():
        paths[name] = work / name
        seed = out[kind]
        paths[name].write_bytes(data.draw(fuzz(seed), label=name) if name == fuzzed else seed)
    paths["work"] = work
    argv = []
    for arg in command + list(extra):
        for name, path in paths.items():
            arg = arg.replace(f"{{{name}}}", str(path))
        argv.append(arg)
    check(*call(argv), verdict=verdict)


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(data=st.data(), trace=st.sampled_from(["sensor.trace", "branchy.trace"]))
def test_compress(seeds, data, trace):
    drive(data, seeds, ["compress", "{trace}", "--specs", "{specs}", "-o", "{work}/c.bin",
                        "--report", "{work}/c.json"],
          {"trace": trace, "specs": "specs"})


@SETTINGS
@given(data=st.data(), width=st.sampled_from([[], ["--width", "32"], ["--mode", "dest"]]))
def test_expand(seeds, data, width):
    drive(data, seeds, ["expand", "{log}", "--specs", "{specs}", "-o", "{work}/e.trace"],
          {"log": "image", "specs": "specs"}, width)


@SETTINGS
@given(data=st.data(), policy=st.sampled_from(["top", "minimize", "select"]),
       trace=st.sampled_from(["sensor.trace", "branchy.trace"]))
def test_select_mined(seeds, data, policy, trace):
    drive(data, seeds, ["select", "--policy", policy, "--trace", "{a}", "--trace", "{b}",
                        "-o", "{work}/s.specs"], {"a": trace, "b": "sensor.trace"})


@settings(SETTINGS, max_examples=40)
@given(data=st.data(),
       cfg=st.sampled_from(["static_demo.cfg", "branchy.cfg", "chain.cfg", "irreducible.cfg"]))
def test_select_static(seeds, data, cfg):
    drive(data, seeds, ["select", "--policy", "static", "--cfg", "{cfg}",
                        "-o", "{work}/s.specs"], {"cfg": cfg})


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), cfg=st.sampled_from(["sensor.cfg", "branchy.cfg"]),
       how=st.sampled_from([["--specs", "{specs}"], ["--policy", "top"], []]),
       inject=st.text(max_size=12),
       slice_size=st.sampled_from([256, 2**32 - 1, 2**32]) | st.integers(-1, 2**40))
def test_simulate(seeds, data, cfg, how, inject, slice_size):
    drive(data, seeds, ["simulate", "{cfg}", "--key", "{key}", "--steps", "200",
                        "--report", "{work}/sim.json", f"--inject={inject}",
                        f"--slice-size={slice_size}"],
          {"cfg": cfg, "key": "demo.key", "specs": "specs"}, how, verdict="verdict ")


@SETTINGS
@given(data=st.data(), tcb=st.sampled_from(["9000:9fff"]) | st.text(max_size=12),
       blockmem=st.sampled_from(["a000:a0ff"]) | st.text(max_size=12))
def test_monitor(seeds, data, tcb, blockmem):
    drive(data, seeds, ["monitor", "{events}", f"--tcb={tcb}", f"--blockmem={blockmem}"],
          {"events": "events"}, verdict="reset_at ")


@SETTINGS
@given(data=st.data())
def test_stats(seeds, data):
    drive(data, seeds, ["stats", "{a}", "{b}"], {"a": "report", "b": "report"},
          fuzz=lambda seed: content(seed) | edited_json(seed))
