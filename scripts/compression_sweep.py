#!/usr/bin/env python3
"""Storage-reduction sweep: log + block memory bytes for 1..8 installed
specs, per workload and selection policy, as CSV on stdout.

Usage: python scripts/compression_sweep.py [--policy top|minimize|select]
"""

import argparse
import sys

from cfaudit.codec import encode_raw
from cfaudit.fixtures import (
    BRANCHY_LEN_RANGE,
    SENSOR_LEN_RANGE,
    branchy_cfg,
    branchy_profile,
    sensor_cfg,
    sensor_profile,
)
from cfaudit.metrics import build_report, reports_to_csv
from cfaudit.model import EngineConfig, Mode
from cfaudit.selection import choose, enumerate_candidates
from cfaudit.workload import generate_trace

WORKLOADS = {
    "sensor": (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE),
    "branchy": (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--policy", choices=["top", "minimize", "select"], default="top")
    args = parser.parse_args()

    config = EngineConfig()
    reports = []
    for name, (make_cfg, make_profile, len_range) in WORKLOADS.items():
        cfg = make_cfg()
        trace = generate_trace(cfg, make_profile())
        log = encode_raw(trace, config)
        candidates = enumerate_candidates([log], len_range, mode=Mode.PAIR)
        for n in range(1, 9):
            # budget sized per count so the sweep stays comparable across n
            specs = choose(args.policy, candidates, n, n * 48, 100.0, config)
            reports.append(
                build_report(f"{name}-{args.policy}-{n}", trace, specs, config,
                             include_baseline=True)
            )
    sys.stdout.write(reports_to_csv(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
