"""Totality of every reader of outside input: the trace, spec, CFG and
event documents and the request and slice frames.  Fed arbitrary text or
bytes, or a mutated well-formed input, each reader returns or raises an
``AuditError`` or a ``ValueError``, never anything else.  A frame that
decodes encodes back to the same bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import fixtures
from cfaudit.cfg import build_cfg, write_cfg_document
from cfaudit.codec import parse_spec_document, write_spec_document
from cfaudit.errors import AuditError
from cfaudit.files import (
    parse_event_document,
    parse_trace_document,
    write_event_document,
    write_trace_document,
)
from cfaudit.model import EngineConfig, Mode, SubPathSpec, Transfer
from cfaudit.monitor import AccessEvent
from cfaudit.protocol import EvidenceSlice, Prover, Request, make_request
from cfaudit.workload import generate_trace

from test_cfg import IRREDUCIBLE_DOCUMENT
from test_cli_totality import mutated

KEY = bytes(range(32))
CHALLENGE = bytes(range(16))
PAIR = EngineConfig(slice_size_bytes=64)
DEST = EngineConfig(mode=Mode.DEST, addr_width=32, slice_size_bytes=64)

TRACE = generate_trace(fixtures.sensor_cfg(), fixtures.sensor_profile(steps=60))
PAIR_SPECS = [SubPathSpec(1, tuple(TRACE[:3])), SubPathSpec(2, tuple(TRACE[10:12]))]
DEST_SPECS = [SubPathSpec(1, tuple(t.dest for t in TRACE[:3]))]


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
        + _slice_frames(DEST, DEST_SPECS, [Transfer(None, t.dest) for t in TRACE])[-2:]
    ),
}


def text_input(kind):
    seeds = [s.encode() for s in SEEDS[kind]]
    return st.one_of(
        st.sampled_from(seeds).flatmap(mutated).map(lambda b: b.decode("utf-8", "replace")),
        st.text(max_size=64),
    )


def frame_input(kind):
    return st.one_of(st.sampled_from(SEEDS[kind]).flatmap(mutated), st.binary(max_size=96))


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
