"""CLI behavior mirrors direct module calls on the same inputs."""

import json

import pytest

from cfaudit import protocol, selection
from cfaudit.cli import main
from cfaudit.codec import (
    deserialize_log,
    encode_raw,
    parse_spec_document,
    serialize_log,
    write_spec_document,
)
from cfaudit.engine import Engine, compress_trace
from cfaudit.files import (
    parse_trace_document,
    save_key,
    write_event_document,
    write_trace_document,
)
from cfaudit.fixtures import DEMO_KEY, write_fixture_files
from cfaudit.model import MAX_SPEC_LEN, EngineConfig, Mode, SubPathSpec, Transfer
from cfaudit.monitor import AccessEvent
from cfaudit.selection import estimate_savings

from test_cfg import dead_diamonds_document, long_path_document, looped_diamonds_document

A, B, D = 0x0400, 0x0500, 0x0600
CONFIG = EngineConfig()
SPEC = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
TRACE = [Transfer(A, B), Transfer(B, D), Transfer(D, A)] * 10


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "t.trace").write_text(write_trace_document(TRACE, Mode.PAIR, 16))
    (tmp_path / "s.specs").write_text(write_spec_document([SPEC], Mode.PAIR))
    save_key(tmp_path / "k.key", DEMO_KEY)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestCompressExpand:
    def test_compress_matches_library(self, workdir, capsys):
        out = workdir / "out.bin"
        code = run("compress", workdir / "t.trace", "--specs", workdir / "s.specs",
                   "-o", out)
        assert code == 0
        expected = serialize_log(compress_trace(TRACE, [SPEC], CONFIG), CONFIG)
        assert out.read_bytes() == expected
        report = json.loads((workdir / "out.bin.report.json").read_text())
        assert report["total_bytes"] == report["compressed_bytes"] + report["blockmem_bytes"]
        assert "reduction_pct" in capsys.readouterr().out

    def test_compress_runs_two_engine_passes(self, tmp_path, monkeypatch):
        fixtures = write_fixture_files(tmp_path / "fx")
        spec_out = tmp_path / "top.specs"
        assert run("select", "--policy", "top", "--trace", fixtures["branchy.trace"],
                   "-o", spec_out) == 0
        feeds = []
        real_feed = Engine.feed

        def counting_feed(self, *args, **kwargs):
            feeds.append(len(self.specs))
            return real_feed(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "feed", counting_feed)
        assert run("compress", fixtures["branchy.trace"], "--specs", spec_out,
                   "-o", tmp_path / "c.bin") == 0
        # the log written and the report's unsliced figures come from one
        # pass; the report's sliced pass is the other
        assert len(feeds) == 2 and all(feeds)

    def test_compress_then_expand_round_trip(self, workdir):
        out = workdir / "out.bin"
        back = workdir / "back.trace"
        assert run("compress", workdir / "t.trace", "--specs", workdir / "s.specs", "-o", out) == 0
        assert run("expand", out, "--specs", workdir / "s.specs", "-o", back) == 0
        mode, width, trace = parse_trace_document(back.read_text())
        assert trace == TRACE

    def test_empty_spec_file_means_raw(self, workdir):
        out = workdir / "out.bin"
        assert run("compress", workdir / "t.trace", "-o", out) == 0
        assert deserialize_log(out.read_bytes(), CONFIG) == encode_raw(TRACE, CONFIG)
        report = json.loads((workdir / "out.bin.report.json").read_text())
        assert report["reduction_pct"] == 0.0

    def test_bad_trace_exits_1_without_output(self, workdir, capsys):
        bad = workdir / "bad.trace"
        bad.write_text("mode pair\nwidth 16\nzz\n")
        out = workdir / "out.bin"
        assert run("compress", bad, "-o", out) == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_expand_unknown_symbol_exits_1(self, workdir, capsys):
        out = workdir / "out.bin"
        assert run("compress", workdir / "t.trace", "--specs", workdir / "s.specs", "-o", out) == 0
        empty = workdir / "none.specs"
        empty.write_text("mode pair\n")
        assert run("expand", out, "--specs", empty, "-o", workdir / "x.trace") == 1

    def test_compress_takes_only_code_addresses(self, workdir, capsys):
        low = workdir / "low.trace"
        low.write_text("mode pair\nwidth 16\n0100 0500\n")
        out = workdir / "low.bin"
        assert run("compress", low, "-o", out) == 1
        assert capsys.readouterr().err == "error: transfer (0x100, 0x500) out of range\n"
        assert not out.exists()

    def test_expand_rejects_a_reserved_gap_word(self, workdir, capsys):
        # the memory image has no room for 0x100: it is neither symbol nor address
        low = workdir / "low.bin"
        low.write_bytes(bytes([0x00, 0x01, 0x00, 0x05]))
        out = workdir / "low.trace"
        assert run("expand", low, "-o", out) == 1
        assert capsys.readouterr().err == "error: word 0x100 falls in the reserved gap\n"
        assert not out.exists()


class TestSelect:
    def test_each_policy_yields_usable_specs(self, workdir, tmp_path):
        fixtures = write_fixture_files(tmp_path / "fx")
        out_log = tmp_path / "c.bin"
        for policy in ("top", "minimize", "select"):
            spec_out = tmp_path / f"{policy}.specs"
            assert run("select", "--policy", policy, "--trace", fixtures["branchy.trace"],
                       "-o", spec_out, "--max-paths", 4) == 0
            mode, specs = parse_spec_document(spec_out.read_text())
            assert specs and mode is Mode.PAIR
            assert run("compress", fixtures["branchy.trace"], "--specs", spec_out,
                       "-o", out_log) == 0

    def test_static_policy_ranks_loop_path_first(self, workdir, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        spec_out = tmp_path / "static.specs"
        assert run("select", "--policy", "static", "--cfg", fixtures["static_demo.cfg"],
                   "-o", spec_out) == 0
        _, specs = parse_spec_document(spec_out.read_text())
        assert specs
        # spec 1 is the loop-body path s1 -> s2 -> s3 of the demo CFG
        assert specs[0].entries == (
            Transfer(0x2116, 0x2120),
            Transfer(0x2126, 0x2130),
        )

    def test_static_policy_skips_paths_too_long_for_a_spec(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(long_path_document())
        spec_out = tmp_path / "static.specs"
        assert run("select", "--policy", "static", "--cfg", cfg, "-o", spec_out,
                   "--budget", 100_000) == 0
        _, specs = parse_spec_document(spec_out.read_text())
        assert specs and all(s.length <= MAX_SPEC_LEN for s in specs)
        assert capsys.readouterr().err == ""

    def test_static_path_cap_is_per_segment(self, tmp_path, capsys):
        # 2**13 loop paths plus 2**11 exit paths: over the cap together, not apart
        cfg = tmp_path / "diamonds.cfg"
        cfg.write_text(looped_diamonds_document())
        spec_out = tmp_path / "static.specs"
        assert run("select", "--policy", "static", "--cfg", cfg, "-o", spec_out) == 0
        _, specs = parse_spec_document(spec_out.read_text())
        assert specs
        assert capsys.readouterr().err == ""

    def test_static_skips_uncalled_functions(self, tmp_path, capsys):
        # the uncalled ``dead`` has 2**14 paths, over the cap, and is never listed
        cfg = tmp_path / "dead.cfg"
        cfg.write_text(dead_diamonds_document())
        spec_out = tmp_path / "static.specs"
        assert run("select", "--policy", "static", "--cfg", cfg, "-o", spec_out) == 0
        _, specs = parse_spec_document(spec_out.read_text())
        assert [s.entries for s in specs] == [
            (Transfer(0x0402, 0x0404), Transfer(0x0406, 0x040C)),
            (Transfer(0x0402, 0x0408), Transfer(0x040A, 0x040C)),
        ]
        assert capsys.readouterr().err == ""

    def test_select_budget_respected(self, workdir, tmp_path):
        fixtures = write_fixture_files(tmp_path / "fx")
        spec_out = tmp_path / "sel.specs"
        assert run("select", "--policy", "select", "--trace", fixtures["branchy.trace"],
                   "-o", spec_out, "--budget", 30) == 0
        from cfaudit.codec import serialize_blockmem

        _, specs = parse_spec_document(spec_out.read_text())
        assert len(serialize_blockmem(specs, CONFIG).data) <= 30

    def test_missing_inputs(self, workdir, tmp_path):
        assert run("select", "--policy", "top", "-o", tmp_path / "x") == 1
        assert run("select", "--policy", "static", "-o", tmp_path / "x") == 1

    @staticmethod
    def select_traces(tmp_path, capsys, docs, *flags):
        """Write ``docs`` as trace files, run ``select --policy top`` over
        them; return the exit code, printed savings, written specs and
        stderr."""
        paths = []
        for i, (trace, mode, width) in enumerate(docs):
            paths.append(tmp_path / f"{i}.trace")
            paths[-1].write_text(write_trace_document(trace, mode, width))
        out = tmp_path / "top.specs"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = run("select", "--policy", "top", *[a for p in paths for a in ("--trace", p)],
                   "-o", out, *flags)
        printed = capsys.readouterr()
        saved = [int(line.split()[-1]) for line in printed.out.splitlines()
                 if line.startswith("spec ")]
        specs = parse_spec_document(out.read_text()) if out.exists() else None
        return code, saved, specs, printed.err

    @staticmethod
    def library_savings(specs, traces, config):
        logs = [encode_raw(t, config) for t in traces]
        return [estimate_savings(s, logs, config) for s in specs]

    def test_32_bit_trace_sets_the_width(self, tmp_path, capsys):
        code, saved, (mode, specs), _ = self.select_traces(
            tmp_path, capsys, [(TRACE, Mode.PAIR, 32)])
        assert code == 0 and mode is Mode.PAIR and specs
        wide = EngineConfig(addr_width=32)
        assert saved == self.library_savings(specs, [TRACE], wide)
        assert saved != self.library_savings(specs, [TRACE], CONFIG)

    def test_dest_trace_sets_the_mode(self, tmp_path, capsys):
        dest = [Transfer(None, t.dest) for t in TRACE]
        code, saved, (mode, specs), _ = self.select_traces(
            tmp_path, capsys, [(dest, Mode.DEST, 16)])
        assert code == 0 and mode is Mode.DEST and specs
        assert saved == self.library_savings(specs, [dest], EngineConfig(mode=Mode.DEST))

    def test_traces_that_disagree_need_a_flag(self, tmp_path, capsys):
        mixed = [(TRACE, Mode.PAIR, 16), (TRACE, Mode.PAIR, 32)]
        code, saved, specs, err = self.select_traces(tmp_path, capsys, mixed)
        assert (code, saved, specs) == (1, [], None)
        assert "error: trace files declare different widths (16, 32); pass --width" in err
        code, saved, (_, specs), _ = self.select_traces(tmp_path, capsys, mixed, "--width", 32)
        wide = EngineConfig(addr_width=32)
        assert code == 0 and saved == self.library_savings(specs, [TRACE, TRACE], wide)
        dest = [Transfer(None, t.dest) for t in TRACE]
        code, _, specs, err = self.select_traces(
            tmp_path, capsys, [(TRACE, Mode.PAIR, 16), (dest, Mode.DEST, 16)])
        assert (code, specs) == (1, None)
        assert "error: trace files declare different modes (dest, pair); pass --mode" in err


class TestSimulate:
    def test_benign_run(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        code = run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--policy", "top", "--min-len", 10, "--max-len", 16,
                   "--steps", 1500, "--seed", 7, "--loop-bias", 60,
                   "--max-paths", 1, "--report", tmp_path / "sim.json")
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict authentic_and_valid" in out
        report = json.loads((tmp_path / "sim.json").read_text())
        assert report["slice_count"] < report["slice_count_baseline"]

    def test_simulate_runs_three_engine_passes(self, tmp_path, monkeypatch):
        fixtures = write_fixture_files(tmp_path / "fx")
        feeds = []
        real_feed = Engine.feed

        def counting_feed(self, *args, **kwargs):
            feeds.append(len(self.specs))
            return real_feed(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "feed", counting_feed)
        assert run("simulate", fixtures["branchy.cfg"], "--key", fixtures["demo.key"],
                   "--policy", "top", "--report", tmp_path / "sim.json") == 0
        # one no-spec feed encodes the trace raw as the selection's prior;
        # then the prover's sliced pass and the report's unsliced and sliced
        # passes: the report's baseline is counted, not compressed
        assert feeds[0] == 0 and len(feeds) == 4 and all(feeds[1:])
        assert json.loads((tmp_path / "sim.json").read_text())["slice_count_baseline"]

    def test_fault_injection_fails_auth(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        code = run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--steps", 600, "--flip", "0:100", "--report", tmp_path / "r.json")
        assert code == 1
        assert "auth_failure" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, field, want", [
        ("--drop", "0", "drop", {0}),
        ("--replay", "0", "replay", {0}),
        ("--flip", "0", "flip", {0: 0}),
        ("--flip", "0:0", "flip", {0: 0}),
    ], ids=["drop", "replay", "flip", "flip-bit"])
    def test_fault_index_0_is_injected(self, tmp_path, capsys, monkeypatch,
                                       flag, value, field, want):
        seen = []
        real_session = protocol.run_session

        def recording_session(*args, **kwargs):
            seen.append(kwargs["faults"])
            return real_session(*args, **kwargs)

        monkeypatch.setattr(protocol, "run_session", recording_session)
        fixtures = write_fixture_files(tmp_path / "fx")
        run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
            "--steps", 400, flag, value, "--report", tmp_path / "r.json")
        assert getattr(seen[0], field) == want
        out, err = capsys.readouterr()
        assert err == "" and "verdict " in out

    def test_injected_edge_detected(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        code = run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--steps", 400, "--inject", "0400:0508@50",
                   "--report", tmp_path / "r.json")
        assert code == 1
        out = capsys.readouterr().out
        assert "authentic_but_invalid_path" in out and "invalid_index=50" in out

    def test_edge_injected_after_the_last_transfer(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        code = run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--steps", 400, "--inject", "0400:0508@400",
                   "--report", tmp_path / "r.json")
        assert code == 1
        assert "invalid_index=400" in capsys.readouterr().out

    def test_verdict_prints_index_and_reason(self, tmp_path, capsys, monkeypatch):
        verdict = protocol.Verdict(
            protocol.Outcome.AUTHENTIC_BUT_INVALID_PATH, invalid_index=12, reason="why"
        )
        monkeypatch.setattr(protocol, "run_session", lambda *a, **k: verdict)
        fixtures = write_fixture_files(tmp_path / "fx")
        code = run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--steps", 50, "--report", tmp_path / "r.json")
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict authentic_but_invalid_path invalid_index=12 reason=why" in out


class TestBadInput:
    """Values argparse accepts but the library rejects exit 1 with a
    one-line error instead of a traceback."""

    def check(self, capsys, *argv):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_select_max_paths_above_8(self, workdir, capsys):
        err = self.check(capsys, "select", "--policy", "top", "--trace", workdir / "t.trace",
                         "--max-paths", 9, "-o", workdir / "x.specs")
        assert "max_sub_paths" in err
        assert not (workdir / "x.specs").exists()

    def test_select_min_len_0(self, workdir, capsys):
        err = self.check(capsys, "select", "--policy", "top", "--trace", workdir / "t.trace",
                         "--min-len", 0, "-o", workdir / "x.specs")
        assert "len_range" in err

    def check_max_len(self, capsys, monkeypatch, max_len, *argv):
        """A ``--max-len`` up to the longest spec mines; a longer one exits
        1 before mining."""
        mined = []
        mine = selection.enumerate_candidates
        monkeypatch.setattr(selection, "enumerate_candidates",
                            lambda *a, **k: mined.append(a) or mine(*a, **k))
        if max_len <= MAX_SPEC_LEN:
            assert run(*argv, "--max-len", max_len) == 0
            assert len(mined) == 1
        else:
            err = self.check(capsys, *argv, "--max-len", max_len)
            assert f"--max-len {max_len}" in err and mined == []

    @pytest.mark.parametrize("max_len", [MAX_SPEC_LEN, MAX_SPEC_LEN + 1])
    def test_select_max_len_up_to_the_longest_spec(self, workdir, capsys, monkeypatch,
                                                   max_len):
        self.check_max_len(capsys, monkeypatch, max_len, "select", "--policy", "top",
                           "--trace", workdir / "t.trace", "-o", workdir / "x.specs")
        assert (workdir / "x.specs").exists() == (max_len <= MAX_SPEC_LEN)

    @pytest.mark.parametrize("max_len", [MAX_SPEC_LEN, MAX_SPEC_LEN + 1])
    def test_simulate_max_len_up_to_the_longest_spec(self, tmp_path, capsys, monkeypatch,
                                                     max_len):
        fixtures = write_fixture_files(tmp_path / "fx")
        self.check_max_len(capsys, monkeypatch, max_len, "simulate", fixtures["sensor.cfg"],
                           "--key", fixtures["demo.key"], "--steps", 400, "--policy", "top",
                           "--report", tmp_path / "r.json")

    def test_simulate_negative_steps(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        err = self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key",
                         fixtures["demo.key"], "--steps", -1)
        assert "steps" in err

    @pytest.mark.parametrize("bias", ["inf", "nan"])
    def test_simulate_non_finite_loop_bias(self, tmp_path, capsys, bias):
        fixtures = write_fixture_files(tmp_path / "fx")
        err = self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key",
                         fixtures["demo.key"], f"--loop-bias={bias}")
        assert len(err.splitlines()) == 1 and "loop_bias" in err

    @pytest.mark.parametrize("index", [-1, 401, 99999])
    def test_simulate_inject_index_outside_the_trace(self, tmp_path, capsys, index):
        # list.insert would wrap or clamp it onto another transfer
        fixtures = write_fixture_files(tmp_path / "fx")
        err = self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key",
                         fixtures["demo.key"], "--steps", 400,
                         "--inject", f"0400:0508@{index}", "--report", tmp_path / "r.json")
        assert len(err.splitlines()) == 1 and f"index {index} outside 0..400" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag, value, what", [
        ("--drop", "-1", "--drop frame -1"),
        ("--replay", "-1", "--replay frame -1"),
        ("--flip", "-1", "--flip frame -1"),
        ("--flip", "0:-1", "--flip bit -1"),
    ], ids=["drop", "replay", "flip", "flip-bit"])
    def test_simulate_negative_fault_index(self, tmp_path, capsys, flag, value, what):
        # a negative frame matches no frame and a negative bit wraps onto
        # the frame's last byte, so the run would report the wrong fault
        fixtures = write_fixture_files(tmp_path / "fx")
        err = self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key",
                         fixtures["demo.key"], "--steps", 400, flag, value,
                         "--report", tmp_path / "r.json")
        assert err == f"error: {what} is negative\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag, value, what", [
        ("--drop", "99", "drop frame 99 is not one of the 7 frames sent"),
        ("--replay", "99", "replay frame 99 is not one of the 7 frames sent"),
        ("--flip", "7", "flip frame 7 is not one of the 7 frames sent"),
        ("--flip", "0:99999", "flip bit 99999 is not one of frame 0's 2376 bits"),
        ("--flip", "6:1096", "flip bit 1096 is not one of frame 6's 1096 bits"),
    ], ids=["drop", "replay", "flip", "flip-bit", "flip-last-frame-bit"])
    def test_simulate_fault_past_what_was_sent(self, tmp_path, capsys, flag, value, what):
        # at 400 steps the sensor session sends 7 frames, the last of 137 bytes;
        # a fault past them would inject nothing or flip some other bit
        fixtures = write_fixture_files(tmp_path / "fx")
        err = self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key",
                         fixtures["demo.key"], "--steps", 400, flag, value,
                         "--report", tmp_path / "r.json")
        assert err == f"error: {what}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag, value, verdict", [
        ("--drop", "6", "verdict incomplete"),
        ("--flip", "6:1095", "verdict auth_failure reason=bad_mac"),
    ], ids=["drop", "flip-bit"])
    def test_simulate_fault_on_last_frame_and_bit(self, tmp_path, capsys, flag, value, verdict):
        fixtures = write_fixture_files(tmp_path / "fx")
        assert run("simulate", fixtures["sensor.cfg"], "--key", fixtures["demo.key"],
                   "--steps", 400, flag, value, "--report", tmp_path / "r.json") == 1
        assert verdict in capsys.readouterr().out

    def test_simulate_non_hex_key(self, tmp_path, capsys):
        fixtures = write_fixture_files(tmp_path / "fx")
        self.check(capsys, "simulate", fixtures["sensor.cfg"], "--key", fixtures["sensor.cfg"],
                   "--report", tmp_path / "r.json")


class TestMonitorCmd:
    def test_ok_and_reset(self, tmp_path, capsys):
        benign = [AccessEvent(pc=0x9100, w_en=True, d_addr=0xA000)]
        bad = benign + [AccessEvent(pc=0x4000, w_en=True, d_addr=0xA000)]
        f1, f2 = tmp_path / "ok.events", tmp_path / "bad.events"
        f1.write_text(write_event_document(benign))
        f2.write_text(write_event_document(bad))
        assert run("monitor", f1, "--tcb", "9000:9fff", "--blockmem", "a000:a0ff") == 0
        assert "ok" in capsys.readouterr().out
        assert run("monitor", f2, "--tcb", "9000:9fff", "--blockmem", "a000:a0ff") == 1
        assert "reset_at 1" in capsys.readouterr().out


class TestStats:
    def test_merges_reports(self, workdir, tmp_path, capsys):
        out = workdir / "out.bin"
        run("compress", workdir / "t.trace", "--specs", workdir / "s.specs", "-o", out,
            "--report", tmp_path / "r1.json")
        run("compress", workdir / "t.trace", "-o", out, "--report", tmp_path / "r2.json")
        capsys.readouterr()
        assert run("stats", tmp_path / "r1.json", tmp_path / "r2.json") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("label,mode,addr_width,raw_bytes")

    def test_zero_reports_header_only(self, capsys):
        assert run("stats") == 0
        assert capsys.readouterr().out.strip().count("\n") == 0

    # a whole document, or fields that replace a good report's
    @pytest.mark.parametrize("doc", [
        "{}", '{"name": 1}', "null", "[]", {"spec_hits": [1]}, {"reduction_pct": "a"},
        "[" * 100_000,
    ], ids=["empty", "other-field", "null", "list", "hits-list", "pct-text", "deep"])
    def test_not_a_report_exits_1(self, workdir, tmp_path, capsys, doc):
        good = tmp_path / "good.json"
        run("compress", workdir / "t.trace", "-o", tmp_path / "out.bin", "--report", good)
        bad = tmp_path / "bad.json"
        bad.write_text(doc if isinstance(doc, str)
                       else json.dumps({**json.loads(good.read_text()), **doc}))
        capsys.readouterr()
        assert run("stats", good, bad) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
