import random
from dataclasses import replace

import pytest

from cfaudit.codec import encode_raw
from cfaudit.engine import Engine, slice_compress
from cfaudit.errors import AddressOutOfRange, ModeMismatch, SliceTooSmall
from cfaudit.metrics import (
    CSV_COLUMNS,
    build_report,
    load_report,
    report_to_json,
    reports_to_csv,
)
from cfaudit.model import EngineConfig, Mode, SubPathSpec, Transfer

from conftest import CONFIG_GRID, random_specs, random_trace

CONFIG = EngineConfig()
A, B, D = 0x0400, 0x0500, 0x0600
SPEC = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
TRACE = [Transfer(A, B), Transfer(B, D), Transfer(D, A)] * 20


def test_identities_hold():
    rep = build_report("t", TRACE, [SPEC], CONFIG, include_baseline=True)
    assert rep.total_bytes == rep.compressed_bytes + rep.blockmem_bytes
    assert 0.0 <= rep.reduction_pct <= 100.0
    assert rep.slice_count <= rep.slice_count_baseline
    assert rep.spec_hits == {1: 20}


def test_empty_trace_reduction_zero():
    rep = build_report("t", [], [SPEC], CONFIG)
    assert rep.raw_bytes == 0 and rep.reduction_pct == 0.0


def test_no_specs_reduction_zero():
    rep = build_report("t", TRACE, [], CONFIG)
    assert rep.reduction_pct == 0.0
    assert rep.compressed_bytes == rep.raw_bytes
    assert rep.blockmem_bytes == 0


def test_json_round_trip(tmp_path):
    rep = build_report("t", TRACE, [SPEC], CONFIG, include_baseline=True)
    path = tmp_path / "r.json"
    path.write_text(report_to_json(rep))
    assert load_report(path) == rep


def test_csv_stable_header_and_rows():
    rep = build_report("t", TRACE, [SPEC], CONFIG)
    out = reports_to_csv([rep])
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("t,pair,16,")
    # zero reports -> header only
    assert reports_to_csv([]).strip() == ",".join(CSV_COLUMNS)


def test_csv_column_order_is_fixed():
    assert CSV_COLUMNS[0] == "label"
    assert CSV_COLUMNS.index("raw_bytes") < CSV_COLUMNS.index("compressed_bytes")
    a = reports_to_csv([build_report("x", TRACE, [], CONFIG)])
    b = reports_to_csv([build_report("x", TRACE, [], CONFIG)])
    assert a == b


def test_raw_bytes_is_the_raw_encoding_size():
    rng = random.Random(5)
    for config in CONFIG_GRID:
        trace = random_trace(rng, config, rng.randint(0, 80))
        specs = random_specs(rng, config, trace)
        rep = build_report("t", trace, specs, config)
        assert rep.raw_bytes == encode_raw(trace, config).size_bytes


BAD = [
    (CONFIG, Transfer(None, B), ModeMismatch),
    (CONFIG, Transfer(0x0100, B), AddressOutOfRange),
    (CONFIG, Transfer(A, 0x8000), AddressOutOfRange),
    (EngineConfig(mode=Mode.DEST), Transfer(None, 0x0100), AddressOutOfRange),
    (EngineConfig(mode=Mode.DEST), Transfer(A, 0x8000), AddressOutOfRange),
]


@pytest.mark.parametrize("config, bad, error", BAD)
@pytest.mark.parametrize("with_specs", [False, True])
@pytest.mark.parametrize("at", [0, 1, 30, 60])  # first, mid-match, mid-trace, last
def test_bad_transfer_raises(config, bad, error, with_specs, at):
    spec = SPEC if config.mode is Mode.PAIR else SubPathSpec(1, (B, D))
    trace = TRACE[:at] + [bad] + TRACE[at:]
    with pytest.raises(error):
        build_report("t", trace, [spec] if with_specs else [], config, include_baseline=True)


@pytest.mark.parametrize("config", CONFIG_GRID)
def test_baseline_count_is_the_no_spec_engine_count(config):
    # the baseline is counted by arithmetic; a no-spec engine pass must agree
    # at every budget edge and at every trace length around a slice boundary
    rng = random.Random(config.addr_width + len(config.mode.value))
    raw, word = config.raw_element_bytes, config.word_bytes
    for size in (raw, raw + 1, 2 * raw - 1, 2 * raw, 3 * raw + word, 256):
        sized = replace(config, slice_size_bytes=size)
        per_slice = size // raw
        for n in (0, 1, 3 * per_slice - 1, 3 * per_slice, 3 * per_slice + 1):
            trace = random_trace(rng, sized, n)
            specs = random_specs(rng, sized, trace)
            rep = build_report("t", trace, specs, sized, include_baseline=True)
            assert rep.slice_count_baseline == len(slice_compress(trace, (), sized)), (size, n)


@pytest.mark.parametrize("config", CONFIG_GRID)
@pytest.mark.parametrize("with_specs", [False, True])
@pytest.mark.parametrize("n", [0, 5])
def test_baseline_on_a_budget_below_one_raw_element_raises(config, with_specs, n):
    sized = replace(config, slice_size_bytes=config.raw_element_bytes - 1)
    trace = random_trace(random.Random(n), sized, n)
    spec = SPEC if config.mode is Mode.PAIR else SubPathSpec(1, (B, D))
    specs = [spec] if with_specs else []
    with pytest.raises(SliceTooSmall):
        build_report("t", trace, specs, sized, include_baseline=True)


def test_report_with_baseline_runs_two_spec_passes(monkeypatch):
    feeds = []
    real_feed = Engine.feed

    def counting_feed(self, *args, **kwargs):
        feeds.append(len(self.specs))
        return real_feed(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "feed", counting_feed)
    rep = build_report("t", TRACE, [SPEC], CONFIG, include_baseline=True)
    # the unsliced pass and the sliced pass; the baseline takes none
    assert feeds == [1, 1]
    assert rep.slice_count_baseline == 1
