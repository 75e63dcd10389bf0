import pickle
from dataclasses import FrozenInstanceError

import pytest

from cfaudit.errors import AddressOutOfRange, LenOverflow
from cfaudit.model import (
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    SubPathSpec,
    Symbol,
    Transfer,
    check_address,
    make_log,
)


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
        {"min_code_addr": 0x80},  # collides with symbol ids
        {"min_code_addr": 0x9000},  # collides with the counter tag range
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


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


def test_log_fields_and_immutability():
    cfg = EngineConfig()
    words = (0x0400, 0x0500, 1)
    word_log = Log.from_words(words, cfg)
    assert (word_log.words, word_log.config, word_log.size_bytes) == (words, cfg, 6)
    element_log = Log((RawPair(0x0400, 0x0500), Symbol(1)), 6)
    assert element_log.words is None and element_log.config is None
    assert word_log.elements == element_log.elements
    assert word_log == element_log and hash(word_log) == hash(element_log)
    for log in (word_log, element_log):
        with pytest.raises(FrozenInstanceError):
            log.size_bytes = 0
        with pytest.raises(FrozenInstanceError):
            del log.words
        assert pickle.loads(pickle.dumps(log)) == log
