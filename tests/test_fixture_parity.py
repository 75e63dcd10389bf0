"""Engine against oracle on the bundled fixtures at benchmark scale.

Both fixtures, specs chosen as the benchmark chooses them (``top`` on the
fixture's prior trace), and a fresh 20k-transfer trace: the prover's slice
payloads must equal the serialized oracle slices, and the report's byte
and slice figures must stay at the values pinned below.
"""

import pytest

from cfaudit import fixtures
from cfaudit.codec import encode_raw, serialize_log
from cfaudit.metrics import build_report
from cfaudit.model import EngineConfig, LogFormat
from cfaudit.oracle import oracle_slice_compress
from cfaudit.protocol import Prover, Verifier
from cfaudit.selection import choose, enumerate_candidates
from cfaudit.workload import WorkloadProfile, generate_trace

KEY = bytes(range(32))
CONFIG = EngineConfig()
STEPS = 20_000

# fixture -> len_range, specs, session seed, and the report's
# (compressed_bytes, slice_count, slice_count_baseline, spec_hits)
CASES = {
    "sensor": ((10, 16), 1, 11, (1856, 8, 313, {1: 1957})),
    "branchy": ((2, 16), 8, 12, (
        54524, 215, 313, {1: 1538, 2: 756, 3: 1, 4: 755, 5: 1, 6: 788, 7: 1, 8: 406},
    )),
}


def fixture_inputs(name, len_range, n_specs, seed):
    graph = getattr(fixtures, name + "_cfg")()
    profile = getattr(fixtures, name + "_profile")()
    prior = generate_trace(graph, profile)
    candidates = enumerate_candidates([encode_raw(prior, CONFIG)], len_range)
    specs = choose("top", candidates, n_specs, 0, 0.0, CONFIG)
    session = WorkloadProfile(seed=seed, steps=STEPS, loop_bias=profile.loop_bias)
    return specs, generate_trace(graph, session)


@pytest.mark.parametrize("name", sorted(CASES))
def test_prover_payloads_equal_serialized_oracle(name):
    len_range, n_specs, seed, _ = CASES[name]
    specs, trace = fixture_inputs(name, len_range, n_specs, seed)
    assert len(specs) == n_specs and len(trace) == STEPS
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, CONFIG)
    prover.handle_request(verifier.open_session(specs).encode())
    payloads = [s.payload for s in prover.run(trace)]
    oracle = oracle_slice_compress(trace, specs, CONFIG)
    assert payloads == [serialize_log(x, CONFIG, LogFormat.MEMORY_IMAGE) for x in oracle]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_figures_pinned(name):
    len_range, n_specs, seed, pinned = CASES[name]
    specs, trace = fixture_inputs(name, len_range, n_specs, seed)
    report = build_report(name, trace, specs, CONFIG, include_baseline=True)
    got = (report.compressed_bytes, report.slice_count, report.slice_count_baseline,
           report.spec_hits)
    assert got == pinned
