import random

import pytest

from cfaudit.errors import ParseError
from cfaudit.files import (
    load_key,
    parse_event_document,
    parse_trace_document,
    save_key,
    write_event_document,
    write_trace_document,
)
from cfaudit.model import Mode, Transfer
from cfaudit.monitor import AccessEvent

from conftest import CONFIG_GRID, random_trace


class TestTraceDocuments:
    def test_round_trip_many(self):
        rng = random.Random(5)
        for i in range(200):
            config = CONFIG_GRID[i % len(CONFIG_GRID)]
            trace = random_trace(rng, config, rng.randint(0, 50))
            if config.mode is Mode.DEST:
                trace = [Transfer(None, t.dest) for t in trace]
            text = write_trace_document(trace, config.mode, config.addr_width)
            mode, width, parsed = parse_trace_document(text)
            assert mode is config.mode and width == config.addr_width
            assert parsed == trace

    def test_empty_with_header(self):
        mode, width, trace = parse_trace_document("mode pair\nwidth 16\n")
        assert mode is Mode.PAIR and width == 16 and trace == []

    def test_malformed_line_number(self):
        text = "mode pair\nwidth 16\n0400 0500\n0400 0500\n0400 0500\n0400 0500\nzz zz\n"
        with pytest.raises(ParseError) as err:
            parse_trace_document(text)
        assert err.value.line == 7

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_trace_document("0400 0500\n")
        with pytest.raises(ParseError):
            parse_trace_document("")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_trace_document("mode pair\nwidth 16\n0400\n")
        with pytest.raises(ParseError):
            parse_trace_document("mode dest\nwidth 16\n0400 0500\n")

    def test_header_appears_once(self):
        # a second header after records would re-type them: the pair
        # record below would lose its source under dest mode
        text = "mode pair\nwidth 16\n0400 0500\nmode dest\n0600\n"
        with pytest.raises(ParseError) as err:
            parse_trace_document(text)
        assert err.value.line == 4
        with pytest.raises(ParseError) as err:
            parse_trace_document("mode pair\nwidth 16\n0400 0500\nwidth 32\n")
        assert err.value.line == 4

    def test_comments_ignored(self):
        text = "# trace\nmode dest\nwidth 16\n0400  # first\n"
        assert parse_trace_document(text)[2] == [Transfer(None, 0x0400)]


class TestEventDocuments:
    def test_round_trip(self):
        events = [
            AccessEvent(pc=0x0400),
            AccessEvent(pc=0x0400, w_en=True, d_addr=0xA000),
            AccessEvent(pc=0x9000, dma_en=True, dma_addr=0xA010),
            AccessEvent(pc=0x9000, w_en=True, d_addr=0x1000, dma_en=True, dma_addr=0xA010),
        ]
        assert parse_event_document(write_event_document(events)) == events

    def test_bad_field(self):
        with pytest.raises(ParseError):
            parse_event_document("0400 q=12\n")

    def test_bad_pc(self):
        with pytest.raises(ParseError):
            parse_event_document("zz\n")


class TestKeyFiles:
    def test_hex_round_trip(self, tmp_path):
        key = bytes(range(32))
        path = tmp_path / "k.key"
        save_key(path, key)
        assert load_key(path) == key

    def test_raw_bytes(self, tmp_path):
        key = bytes(range(32, 64))
        path = tmp_path / "k.bin"
        path.write_bytes(key)
        assert load_key(path) == key

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "k"
        path.write_text("aabb\n")
        with pytest.raises(ValueError):
            load_key(path)
        with pytest.raises(ValueError):
            save_key(path, b"short")
