#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py [--seed N]

For each workload: set up, run a short seeded slice of its first round
and check every output, then corrupt one output and show that the
harness counts that item as failed.  Exits 0 when every slice passes and
every corruption is caught.
"""

from __future__ import annotations

import argparse
import sys
import time

import run

SLICE = 6


def short_slice(name: str, items):
    if name == "cli":
        # the 2I commands, so the files each command reads are written
        return [it for it in items if it.label.split(" ", 1)[1].startswith("2I")]
    return items[:SLICE]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    ok = True
    for name in run.WORKLOADS:
        c0 = time.process_time()
        wl = run.make_workload(name, args.seed, None)
        try:
            records = []
            for item in short_slice(name, wl.round(0)):
                out, cpu, err = run.run_one(wl, item)
                records.append((item, out, cpu, err))
            failed, wrong = run.check_records(wl, records)
            item, out, cpu, err = records[0]
            bad = [(item, wl.corrupt(item, out), cpu, err)]
            caught, caught_wrong = run.check_records(wl, bad)
        finally:
            wl.close()
        passed = failed == 0 and caught == 1 and caught_wrong == 1
        ok &= passed
        print(f"{name}: slice of {len(records)} items, {failed} failed; corrupted "
              f"{item.label}: {'counted as failed' if caught else 'NOT caught'} "
              f"({time.process_time() - c0:.1f} CPU s) -> {'ok' if passed else 'FAIL'}")
    print("selftest:", "ok" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
