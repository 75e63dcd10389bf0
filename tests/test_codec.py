import random

import pytest
from hypothesis import given, settings

from cfaudit.codec import (
    blockmem_block_bytes,
    deserialize_blockmem,
    deserialize_log,
    encode_raw,
    parse_spec_document,
    serialize_blockmem,
    serialize_log,
    write_spec_document,
)
from cfaudit.errors import (
    AddressOutOfRange,
    CapacityExceeded,
    DuplicateId,
    EncodingOverlap,
    MalformedBlockMem,
    MalformedLog,
    ModeMismatch,
    ParseError,
    TooManySpecs,
)
from cfaudit.model import (
    EngineConfig,
    LogFormat,
    Mode,
    RawDest,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
    make_log,
)

from conftest import CONFIG_GRID, logs, random_specs, random_trace

PAIR16 = EngineConfig()
DEST16 = EngineConfig(mode=Mode.DEST)


class TestEncodeRaw:
    def test_empty(self):
        log = encode_raw([], PAIR16)
        assert log.elements == () and log.size_bytes == 0

    def test_single_pair(self):
        log = encode_raw([Transfer(0x0400, 0x0500)], PAIR16)
        assert log.elements == (RawPair(0x0400, 0x0500),)
        assert log.size_bytes == 4

    def test_dest_mode(self):
        log = encode_raw([Transfer(None, 0x0500), Transfer(None, 0x0600)], DEST16)
        assert log.elements == (RawDest(0x0500), RawDest(0x0600))
        assert log.size_bytes == 4

    def test_out_of_range(self):
        with pytest.raises(AddressOutOfRange):
            encode_raw([Transfer(0x0100, 0x0500)], PAIR16)

    def test_pair_mode_needs_source(self):
        with pytest.raises(ModeMismatch):
            encode_raw([Transfer(None, 0x0500)], PAIR16)


class TestLogSerialization:
    def test_symbol_word_bytes(self):
        log = make_log([Symbol(1)], PAIR16)
        assert serialize_log(log, PAIR16) == bytes.fromhex("0100")

    def test_symbol_count_bytes(self):
        log = make_log([Symbol(1), RepeatCount(2)], PAIR16)
        assert serialize_log(log, PAIR16) == bytes.fromhex("01000280")

    def test_memory_image_rejects_low_address(self):
        with pytest.raises(EncodingOverlap):
            make_log([RawPair(0x0300, 0x0500)], PAIR16)

    def test_size_matches_image_length(self):
        rng = random.Random(7)
        for config in CONFIG_GRID:
            trace = random_trace(rng, config, 50)
            log = encode_raw(trace, config)
            assert log.size_bytes == len(serialize_log(log, config))

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_round_trip_random(self, config, fmt):
        @given(logs(config))
        @settings(max_examples=60, deadline=None)
        def check(log):
            assert deserialize_log(serialize_log(log, config, fmt), config, fmt) == log

        check()

    def test_malformed_truncated_word(self):
        with pytest.raises(MalformedLog):
            deserialize_log(b"\x01", PAIR16)

    def test_malformed_count_without_symbol(self):
        with pytest.raises(MalformedLog):
            deserialize_log(bytes.fromhex("0280"), PAIR16)
        with pytest.raises(MalformedLog):
            deserialize_log(bytes.fromhex("010002800380"), PAIR16)

    def test_malformed_truncated_pair(self):
        with pytest.raises(MalformedLog):
            deserialize_log(bytes.fromhex("0004"), PAIR16)

    def test_malformed_reserved_gap_word(self):
        with pytest.raises(MalformedLog):
            deserialize_log(bytes.fromhex("0003"), PAIR16)  # 0x0300 < min_code_addr

    def test_malformed_zero_word(self):
        with pytest.raises(MalformedLog):
            deserialize_log(bytes.fromhex("0000"), PAIR16)

    def test_serialize_rejects_count_first(self):
        with pytest.raises(MalformedLog):
            make_log([RepeatCount(2)], PAIR16)

    def test_mode_mismatch(self):
        log = make_log([RawDest(0x0400)], DEST16)
        with pytest.raises(ModeMismatch):
            serialize_log(log, PAIR16)


class TestBlockMem:
    def test_layout_and_following_block_offset(self):
        # a 3-entry pair block occupies words 0..6; the next block header
        # lands at word 7 = 2*3 + 1
        s1 = SubPathSpec(1, tuple(Transfer(0x0400 + i, 0x0500 + i) for i in range(3)))
        s2 = SubPathSpec(2, (Transfer(0x0600, 0x0700),))
        img = serialize_blockmem([s1, s2], PAIR16)
        w = PAIR16.word_bytes
        assert int.from_bytes(img.data[0:w], "little") == (1 << 8) | 3
        assert int.from_bytes(img.data[7 * w : 8 * w], "little") == (2 << 8) | 1
        assert len(img.data) == blockmem_block_bytes(3, PAIR16) + blockmem_block_bytes(1, PAIR16)

    def test_empty(self):
        img = serialize_blockmem([], PAIR16)
        assert img.data == b""
        assert deserialize_blockmem(img, PAIR16) == ()

    def test_round_trip_200_random_sets(self):
        rng = random.Random(11)
        for i in range(200):
            config = CONFIG_GRID[i % len(CONFIG_GRID)]
            trace = random_trace(rng, config, 40)
            specs = random_specs(rng, config, trace, max_specs=8, max_len=12)
            img = serialize_blockmem(specs, config)
            assert deserialize_blockmem(img, config) == tuple(specs)

    def test_duplicate_id(self):
        s = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
        with pytest.raises(DuplicateId):
            serialize_blockmem([s, s], PAIR16)

    def test_spec_set_rule(self):
        # the engine's install-time checks: count, mode, addresses
        specs = [SubPathSpec(i, (Transfer(0x0400 + i, 0x0500),)) for i in range(1, 10)]
        with pytest.raises(TooManySpecs):
            serialize_blockmem(specs, PAIR16)
        with pytest.raises(ModeMismatch):
            serialize_blockmem([SubPathSpec(1, (0x0400,))], PAIR16)
        with pytest.raises(AddressOutOfRange):
            serialize_blockmem([SubPathSpec(1, (Transfer(0x0100, 0x0500),))], PAIR16)
        with pytest.raises(AddressOutOfRange):
            serialize_blockmem([SubPathSpec(1, (0x8000,))], DEST16)

    def test_capacity(self):
        s = SubPathSpec(1, tuple(Transfer(0x0400 + i, 0x0500) for i in range(4)))
        need = blockmem_block_bytes(4, PAIR16)
        assert serialize_blockmem([s], PAIR16, capacity_bytes=need).capacity_bytes == need
        with pytest.raises(CapacityExceeded):
            serialize_blockmem([s], PAIR16, capacity_bytes=need - 1)

    def test_malformed_zero_length_block(self):
        data = ((1 << 8) | 0).to_bytes(2, "little")
        with pytest.raises(MalformedBlockMem):
            deserialize_blockmem(data, PAIR16)

    def test_malformed_truncated_block(self):
        data = ((1 << 8) | 2).to_bytes(2, "little") + (0x0400).to_bytes(2, "little")
        with pytest.raises(MalformedBlockMem):
            deserialize_blockmem(data, PAIR16)

    def test_dest_mode_layout(self):
        s = SubPathSpec(1, (0x0400, 0x0500))
        img = serialize_blockmem([s], DEST16)
        assert len(img.data) == 3 * DEST16.word_bytes
        assert deserialize_blockmem(img, DEST16) == (s,)


class TestSpecDocuments:
    def test_round_trip(self):
        specs = [
            SubPathSpec(1, (Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0600))),
            SubPathSpec(7, (Transfer(0x0600, 0x0700),)),
        ]
        text = write_spec_document(specs, Mode.PAIR)
        mode, parsed = parse_spec_document(text)
        assert mode is Mode.PAIR and list(parsed) == specs

    def test_dest_round_trip(self):
        specs = [SubPathSpec(3, (0x0400, 0x0410))]
        mode, parsed = parse_spec_document(write_spec_document(specs, Mode.DEST))
        assert mode is Mode.DEST and list(parsed) == specs

    def test_parse_error_reports_line(self):
        text = "mode pair\nspec 1\n0400 0500\nzzzz qqqq\nend\n"
        with pytest.raises(ParseError) as err:
            parse_spec_document(text)
        assert err.value.line == 4

    def test_missing_mode(self):
        with pytest.raises(ParseError):
            parse_spec_document("spec 1\n0400 0500\nend\n")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse_spec_document("mode pair\nspec 1\n0400 0500\n")

    def test_comments_and_blanks(self):
        text = "# header\nmode dest\n\nspec 2\n0400  # entry\nend\n"
        mode, specs = parse_spec_document(text)
        assert specs[0].entries == (0x0400,)
