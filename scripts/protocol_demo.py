#!/usr/bin/env python3
"""End-to-end protocol demonstration: one benign session plus the three
classic tampering attempts, printing the verifier's verdict for each.
"""

import sys

from cfaudit.codec import encode_raw
from cfaudit.fixtures import DEMO_KEY, SENSOR_LEN_RANGE, sensor_cfg, sensor_profile
from cfaudit.model import EngineConfig, Mode, Transfer
from cfaudit.protocol import ChannelFaults, run_session
from cfaudit.selection import choose, enumerate_candidates
from cfaudit.workload import generate_trace


def main() -> int:
    config = EngineConfig()
    cfg = sensor_cfg()
    trace = generate_trace(cfg, sensor_profile())
    log = encode_raw(trace, config)
    candidates = enumerate_candidates([log], SENSOR_LEN_RANGE, mode=Mode.PAIR)
    specs = choose("top", candidates, n_paths=2, budget_bytes=256, threshold_t=100.0,
                   config=config)

    verdict = run_session(DEMO_KEY, config, specs, trace, cfg)
    print(f"benign run            -> {verdict.outcome.value}")

    verdict = run_session(DEMO_KEY, config, specs, trace, cfg, ChannelFaults(flip={0: 80}))
    print(f"corrupted slice       -> {verdict.outcome.value} ({verdict.reason})")

    verdict = run_session(DEMO_KEY, config, specs, trace, cfg, ChannelFaults(drop={0}))
    print(f"dropped slice         -> {verdict.outcome.value} ({verdict.reason})")

    hijacked = list(trace)
    hijacked.insert(40, Transfer(0x0400, 0x0508))  # edge absent from the CFG
    verdict = run_session(DEMO_KEY, config, specs, hijacked, cfg)
    print(
        f"injected rogue edge   -> {verdict.outcome.value} "
        f"(first bad transfer at {verdict.invalid_index})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
