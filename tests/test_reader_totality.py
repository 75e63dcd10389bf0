"""Totality of every reader of outside input: the trace, spec, CFG and
event documents, the request and slice frames, serialized logs in both
formats (and their expansion), block memory and key files.  Fed arbitrary
text or bytes, or a mutated well-formed input, each reader returns or
raises an ``AuditError`` or a ``ValueError``, never anything else (a key
file may also raise ``OSError``).  A frame, log or block memory that
decodes encodes back to the same bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import fixtures
from cfaudit.cfg import build_cfg, write_cfg_document
from cfaudit.codec import (
    deserialize_blockmem,
    deserialize_log,
    parse_spec_document,
    serialize_blockmem,
    serialize_log,
    write_spec_document,
)
from cfaudit.engine import compress_trace, expand
from cfaudit.errors import AuditError
from cfaudit.files import (
    KEY_BYTES,
    load_key,
    parse_event_document,
    parse_trace_document,
    write_event_document,
    write_trace_document,
)
from cfaudit.model import EngineConfig, LogFormat, Mode, SubPathSpec, Transfer
from cfaudit.monitor import AccessEvent
from cfaudit.protocol import EvidenceSlice, Prover, Request, make_request
from cfaudit.workload import generate_trace

from conftest import CONFIG_GRID
from test_cfg import IRREDUCIBLE_DOCUMENT
from test_cli_totality import mutated

KEY = bytes(range(32))
CHALLENGE = bytes(range(16))
PAIR = EngineConfig(slice_size_bytes=64)
DEST = EngineConfig(mode=Mode.DEST, addr_width=32, slice_size_bytes=64)

TRACE = generate_trace(fixtures.sensor_cfg(), fixtures.sensor_profile(steps=60))
PAIR_SPECS = [SubPathSpec(1, tuple(TRACE[:3])), SubPathSpec(2, tuple(TRACE[10:12]))]
DEST_SPECS = [SubPathSpec(1, tuple(t.dest for t in TRACE[:3]))]
DEST_TRACE = [Transfer(None, t.dest) for t in TRACE]


def _session(config):
    """The spec set of ``config``'s mode and a trace that repeats spec 1,
    so that its log holds symbols, a counter and raw transfers."""
    specs, trace = (PAIR_SPECS, TRACE) if config.mode is Mode.PAIR else (DEST_SPECS, DEST_TRACE)
    return specs, trace[:3] * 3 + trace


def _slice_frames(config, specs, trace):
    prover = Prover(KEY, config)
    prover.handle_request(make_request(KEY, CHALLENGE, specs, config).encode())
    return [s.encode() for s in prover.run(trace)]


SEEDS = {
    "trace": [
        write_trace_document(TRACE, Mode.PAIR, 16),
        write_trace_document(TRACE, Mode.DEST, 32) + "# comment\n\n",
    ],
    "spec": [
        write_spec_document(PAIR_SPECS, Mode.PAIR),
        write_spec_document(DEST_SPECS, Mode.DEST),
    ],
    "cfg": [
        write_cfg_document(fixtures.sensor_cfg()),
        write_cfg_document(fixtures.static_demo_cfg()),
        IRREDUCIBLE_DOCUMENT,
    ],
    "events": [
        write_event_document([
            AccessEvent(pc=0x9100, w_en=True, d_addr=0xA000),
            AccessEvent(pc=0x4000, w_en=True, d_addr=0xA000, dma_en=True, dma_addr=0xA010),
            AccessEvent(pc=0x0400),
        ]),
    ],
    "request": [
        make_request(KEY, CHALLENGE, PAIR_SPECS, PAIR).encode(),
        make_request(KEY, CHALLENGE, DEST_SPECS, DEST).encode(),
        make_request(KEY, CHALLENGE, (), PAIR).encode(),
    ],
    "slice": (
        _slice_frames(PAIR, PAIR_SPECS, TRACE)[-2:]
        + _slice_frames(DEST, DEST_SPECS, DEST_TRACE)[-2:]
    ),
    "key": [bytes(range(KEY_BYTES)), bytes(range(KEY_BYTES)).hex().encode() + b"\n"],
}
# per grid config: a compressed log in each format, and the block memory
LOG_SEEDS = {
    (config, fmt): serialize_log(compress_trace(trace, specs, config), config, fmt)
    for config in CONFIG_GRID
    for specs, trace in [_session(config)]
    for fmt in LogFormat
}
BLOCKMEM_SEEDS = {
    config: serialize_blockmem(_session(config)[0], config).data for config in CONFIG_GRID
}


def text_input(kind):
    seeds = [s.encode() for s in SEEDS[kind]]
    return st.one_of(
        st.sampled_from(seeds).flatmap(mutated).map(lambda b: b.decode("utf-8", "replace")),
        st.text(max_size=64),
    )


def frame_input(kind):
    return frame_input_from(SEEDS[kind])


def frame_input_from(seeds):
    return st.one_of(st.sampled_from(seeds).flatmap(mutated), st.binary(max_size=96))


def total(reader, data):
    """``reader(data)``, or None if it rejected ``data`` as it may."""
    try:
        return reader(data)
    except (AuditError, ValueError):
        return None


SETTINGS = settings(max_examples=200, deadline=None)
TEXT_READERS = {
    "trace": parse_trace_document,
    "spec": parse_spec_document,
    "cfg": build_cfg,
    "events": parse_event_document,
}


@pytest.mark.parametrize("kind", sorted(TEXT_READERS))
def test_seeds_parse(kind):
    for seed in SEEDS[kind]:
        TEXT_READERS[kind](seed)


@SETTINGS
@given(text=text_input("trace"))
def test_trace_document(text):
    total(parse_trace_document, text)


@SETTINGS
@given(text=text_input("spec"))
def test_spec_document(text):
    total(parse_spec_document, text)


@SETTINGS
@given(text=text_input("cfg"))
def test_cfg_document(text):
    total(build_cfg, text)


@SETTINGS
@given(text=text_input("events"))
def test_event_document(text):
    total(parse_event_document, text)


@SETTINGS
@given(frame=frame_input("request"))
def test_request_frame(frame):
    request = total(Request.decode, frame)
    if request is not None:
        assert request.encode() == frame


@SETTINGS
@given(frame=frame_input("slice"))
def test_slice_frame(frame):
    s = total(EvidenceSlice.decode, frame)
    if s is not None:
        assert s.encode() == frame


@pytest.mark.parametrize("kind, decode", [("request", Request.decode),
                                          ("slice", EvidenceSlice.decode)])
def test_seed_frames_decode(kind, decode):
    for frame in SEEDS[kind]:
        assert decode(frame).encode() == frame


@SETTINGS
@given(config=st.sampled_from(CONFIG_GRID), fmt=st.sampled_from(list(LogFormat)),
       data=st.data())
def test_log_bytes_and_their_expansion(config, fmt, data):
    raw = data.draw(frame_input_from([LOG_SEEDS[config, fmt]]))
    log = total(lambda b: deserialize_log(b, config, fmt), raw)
    if log is not None:
        assert serialize_log(log, config, fmt) == raw
        full = total(lambda lg: expand(lg, _session(config)[0], config), log)
        if full is not None:
            full.elements  # an expanded log is well formed: it decodes


@SETTINGS
@given(config=st.sampled_from(CONFIG_GRID), data=st.data())
def test_blockmem_bytes(config, data):
    raw = data.draw(frame_input_from([BLOCKMEM_SEEDS[config]]))
    specs = total(lambda b: deserialize_blockmem(b, config), raw)
    if specs is not None and len(specs) <= config.max_sub_paths:
        assert serialize_blockmem(specs, config).data == raw


@SETTINGS
@given(data=frame_input("key"))
def test_key_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.key"  # rewritten by every example
    path.write_bytes(data)
    try:
        key = load_key(path)
    except (AuditError, ValueError, OSError):
        return
    assert len(key) == KEY_BYTES


def test_seed_logs_blockmem_and_keys_decode(tmp_path):
    for (config, fmt), data in LOG_SEEDS.items():
        specs, trace = _session(config)
        log = deserialize_log(data, config, fmt)
        assert serialize_log(log, config, fmt) == data
        assert expand(log, specs, config) == compress_trace(trace, (), config)
    for config, data in BLOCKMEM_SEEDS.items():
        assert deserialize_blockmem(data, config) == tuple(_session(config)[0])
    for i, data in enumerate(SEEDS["key"]):
        (tmp_path / f"{i}.key").write_bytes(data)
        assert load_key(tmp_path / f"{i}.key") == bytes(range(KEY_BYTES))
