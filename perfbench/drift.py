"""Does prove_tps drift within one process, and is it the machine or the program?

    python3 perfbench/drift.py [--retain]

Runs BATCHES batches of SESSIONS benign sessions on faulty_channel's sensor
inputs (``run.session`` on fresh 20k-transfer traces, seed SEED) inside one
process and prints each batch's prove_tps with the garbage collector's
collections and pause time.  Then it runs every batch again, on the same traces, each in a fresh process.
If the in-process figures fall while the fresh-process ones hold, the drift
is the program's (or the harness's) own state; if both move together it is
the machine.  --retain keeps every trace, slice list and verdict alive, as a
probe that collects its results does.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BATCHES = 4
SESSIONS = 8
SEED = 1


def batches(first: int, count: int, retain: bool) -> list[dict]:
    tr = run.Tracer()
    b, _, _ = run.setup(run.WORKLOADS["faulty_channel"], SEED, tr)
    specs = run.select(b, b.inputs(-1, tr).prior, tr)[0]
    clock = run.GcClock()
    kept: list = []
    out = []
    gc.callbacks.append(clock)
    try:
        for k in range(first, first + count):
            gc_before = clock.collections, clock.pause_s
            busy = transfers = 0
            for j in range(SESSIONS):
                i = k * SESSIONS + j
                inp = b.inputs(i, tr)
                r = run.Round(i, "benign")
                outcome = run.session(b, r, inp.trace, specs, inp.fault_rng, inp.challenge, tr)
                busy += r.prove_s
                transfers += len(inp.trace)
                if retain:
                    kept.append((inp.trace, outcome))
            out.append({"batch": k, "prove_tps": transfers / busy,
                        "gc_collections": clock.collections - gc_before[0],
                        "gc_pause_s": clock.pause_s - gc_before[1]})
    finally:
        gc.callbacks.remove(clock)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--retain", action="store_true")
    # a fresh-process batch: run batch --first alone, print it as JSON
    p.add_argument("--first", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.first is not None:
        print(json.dumps(batches(args.first, 1, args.retain)[0]))
        return 0
    rows = batches(0, BATCHES, args.retain)
    fresh = []
    for k in range(BATCHES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--first", str(k)]
        done = subprocess.run(cmd + (["--retain"] if args.retain else []),
                              capture_output=True, text=True, check=True, timeout=170)
        fresh.append(json.loads(done.stdout.splitlines()[-1]))
    print("batch  one-process prove_tps  gc n  gc pause s   fresh-process prove_tps  gc n")
    for a, f in zip(rows, fresh):
        print(f"{a['batch']:5d}  {a['prove_tps']:21.0f}  {a['gc_collections']:4d}  "
              f"{a['gc_pause_s']:10.4f}   {f['prove_tps']:23.0f}  {f['gc_collections']:4d}")
    ratio = statistics.mean(a["prove_tps"] / f["prove_tps"] for a, f in zip(rows, fresh))
    print(f"mean one-process / fresh-process prove_tps: {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
