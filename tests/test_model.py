import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit.engine import compress_trace
from cfaudit.errors import AddressOutOfRange, LenOverflow, MalformedLog, ModeMismatch
from cfaudit.model import (
    MIN_CODE_ADDR,
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
    check_address,
    make_log,
)
from cfaudit.protocol import Request, make_request

from test_engine import grid_instances


def test_config_defaults():
    cfg = EngineConfig()
    assert cfg.mode is Mode.PAIR
    assert cfg.addr_width == 16
    assert cfg.word_bytes == 2
    assert cfg.counter_tag == 0x8000
    assert cfg.min_code_addr == 0x0400
    assert cfg.slice_size_bytes == 256
    assert not cfg.retry_on_mismatch


@pytest.mark.parametrize(
    "kwargs",
    [
        {"addr_width": 8},
        {"max_sub_paths": 0},
        {"max_sub_paths": 9},
        {"slice_size_bytes": 0},
        {"slice_size_bytes": 2**32},  # does not fit the request's 4-byte field
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


def test_min_code_addr_is_fixed():
    for config in (EngineConfig(), EngineConfig(mode=Mode.DEST, addr_width=32)):
        assert config.min_code_addr == MIN_CODE_ADDR == 0x0400
    with pytest.raises(TypeError):
        EngineConfig(min_code_addr=0x0800)
    with pytest.raises(AttributeError):
        EngineConfig().min_code_addr = 0x0800


def test_largest_slice_size_fits_the_request():
    config = EngineConfig(slice_size_bytes=2**32 - 1)
    frame = make_request(bytes(32), bytes(16), (), config).encode()
    assert Request.decode(frame).slice_size_bytes == 2**32 - 1


def test_check_address_bounds():
    cfg = EngineConfig()
    assert check_address(0x0400, cfg) == 0x0400
    assert check_address(0x7FFF, cfg) == 0x7FFF
    for bad in (0x0000, 0x00FF, 0x03FF, 0x8000, 0xFFFF):
        with pytest.raises(AddressOutOfRange):
            check_address(bad, cfg)


def test_width32_address_bounds():
    cfg = EngineConfig(addr_width=32)
    assert cfg.counter_tag == 1 << 31
    assert check_address(0x7FFF_FFFF, cfg)
    with pytest.raises(AddressOutOfRange):
        check_address(1 << 31, cfg)


def test_spec_validation():
    with pytest.raises(ValueError):
        SubPathSpec(0, (0x0400,))
    with pytest.raises(ValueError):
        SubPathSpec(256, (0x0400,))
    with pytest.raises(ValueError):
        SubPathSpec(1, ())
    with pytest.raises(LenOverflow):
        SubPathSpec(1, tuple(range(0x0400, 0x0400 + 256)))
    spec = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
    assert spec.length == 1 and spec.mode is Mode.PAIR
    dspec = SubPathSpec(2, (0x0400, 0x0500))
    assert dspec.length == 2 and dspec.mode is Mode.DEST


def test_spec_normalizes_plain_tuples():
    spec = SubPathSpec(1, ((0x0400, 0x0500), (0x0500, 0x0600)))
    assert spec.entries == (Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0600))


def test_element_kinds_never_compare_equal():
    # symbols and counters are distinct types from raw elements even with
    # matching numeric payloads
    from cfaudit.model import RepeatCount

    assert RawDest(5) != Symbol(5)
    assert Symbol(5) != RepeatCount(5)
    assert RawPair(1, 2) != RawDest(1)


def test_log_sizes():
    cfg = EngineConfig()
    els = [RawPair(0x0400, 0x0500), Symbol(1)]
    assert make_log(els, cfg).size_bytes == 6
    cfg32 = EngineConfig(addr_width=32)
    assert make_log(els, cfg32).size_bytes == 12
    dcfg = EngineConfig(mode=Mode.DEST)
    assert make_log([RawDest(0x0400)], dcfg).size_bytes == 2


@pytest.mark.parametrize("element, mode, error, message", [
    (RawPair(None, 0x0500), Mode.PAIR, ModeMismatch, "pair-mode log element without source"),
    (RawPair(None, None), Mode.PAIR, ModeMismatch, "pair-mode log element without source"),
    (RawPair(0x0500, None), Mode.PAIR, MalformedLog, "address None is not an int"),
    (RawPair(0x0500, "0x600"), Mode.PAIR, MalformedLog, "address '0x600' is not an int"),
    (RawDest(None), Mode.DEST, MalformedLog, "address None is not an int"),
    (RawDest(1280.0), Mode.DEST, MalformedLog, "address 1280.0 is not an int"),  # in range
], ids=["no-source", "no-addresses", "no-dest", "str", "dest-none", "float"])
def test_an_address_that_is_not_an_int_is_rejected(element, mode, error, message):
    with pytest.raises(error) as info:
        make_log([element], EngineConfig(mode=mode))
    assert str(info.value) == message


def test_log_fields_and_immutability():
    cfg = EngineConfig()
    words = (0x0400, 0x0500, 1)
    log = Log(words, cfg)
    assert (log.words, log.config, log.size_bytes) == (words, cfg, 6)
    assert log.elements == (RawPair(0x0400, 0x0500), Symbol(1))
    built = make_log(log.elements, cfg)
    assert built.words == words and built == log and hash(built) == hash(log)
    with pytest.raises(FrozenInstanceError):
        log.size_bytes = 0
    with pytest.raises(FrozenInstanceError):
        del log.words
    assert pickle.loads(pickle.dumps(log)) == log


@pytest.mark.parametrize("elements, config", [
    ((RawPair(0x0400, 0x0500), Symbol(1), RepeatCount(2)), EngineConfig()),
    ((RawDest(0x0400), RawDest(0x0500), Symbol(1)), EngineConfig(mode=Mode.DEST)),
    ((Symbol(1), Symbol(2)), EngineConfig()),
    ((Symbol(1), RepeatCount(3)), EngineConfig(mode=Mode.DEST)),
    ((), EngineConfig()),
    ((), EngineConfig(mode=Mode.DEST)),
], ids=["pair", "dest", "symbols-pair", "symbols-dest", "empty-pair", "empty-dest"])
def test_log_equality_keys_on_layout(elements, config):
    # equality, hash and pickle key on (words, mode, addr_width)
    log = make_log(elements, config)
    words = log.words
    flipped = replace(config, slice_size_bytes=8, retry_on_mismatch=not config.retry_on_mismatch)
    for same in (config, replace(config), flipped):
        twin = Log(words, same)
        assert hash(twin) == hash(log) and twin._elements is None  # hashing decodes nothing
        assert twin == log and log == twin and not twin != log
        assert pickle.loads(pickle.dumps(twin)) == log
        assert log.image(same) is words
    other_mode = Mode.DEST if config.mode is Mode.PAIR else Mode.PAIR
    wide = make_log(elements, replace(config, addr_width=32))
    crossed = Log(words, replace(config, mode=other_mode))  # the same words
    if not any(isinstance(e, (RawPair, RawDest)) for e in elements):
        assert crossed.elements == log.elements  # and the same elements
    for other in (wide, crossed):
        assert other != log and log != other and not other == log
        assert pickle.loads(pickle.dumps(other)) != log
        assert pickle.loads(pickle.dumps(other)) == other
    assert wide.elements == log.elements


@st.composite
def engine_log_inputs(draw):
    """A ``grid_instances`` case plus a second trace: the same one, or one
    with a transfer replaced by another of the trace (which may leave it
    the same)."""
    trace, specs, config = draw(grid_instances())
    other = list(trace)
    if other and draw(st.booleans()):
        other[draw(st.integers(0, len(other) - 1))] = draw(st.sampled_from(trace))
    return trace, other, specs, config


@given(engine_log_inputs())
@settings(max_examples=150, deadline=None)
def test_word_log_equality_agrees_with_elements(inst):
    trace, other, specs, config = inst
    a = compress_trace(trace, specs, config)
    # an equal config that is not the same object
    b = compress_trace(other, specs, replace(config))
    same = a.elements == b.elements and a.size_bytes == b.size_bytes
    for x, y in ((a, b), (b, a)):
        assert (x == y) is same and (x != y) is not same
        if same:
            assert hash(x) == hash(y)
    if config.addr_width == 16 and trace:  # the same elements in wider words
        wide = compress_trace(trace, specs, replace(config, addr_width=32))
        assert wide.elements == a.elements and wide.size_bytes == 2 * a.size_bytes
        assert wide != a and a != wide
