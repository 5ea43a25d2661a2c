#!/usr/bin/env python3
"""Benchmark harness for mckayq.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload's set-up builds its
inputs from the seed; the timed phase then runs whole rounds of items
until the items have used `--seconds` of CPU time; afterwards every
output is checked against independent computations.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  All timings are process CPU time, as
measured: `time.process_time` in process, the children's rusage on `cli`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "reps", "forensics", "cli")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up CPU time and stop")
    p.add_argument("--count-pass", action="store_true",
                   help="set up, run the first round under the call "
                        "counter and print the counts")
    return p.parse_args(argv)


def make_workload(name: str, seed: int, mode: str | None):
    """Set up a workload; `mode` is "span" or "count" in traced runs."""
    if name == "sweep":
        from sweep import Sweep
        return Sweep(seed)
    if name == "reps":
        from reps import Reps
        return Reps(seed)
    if name == "forensics":
        from forensics import Forensics
        return Forensics(seed, OUT)
    from cliload import CliLoad
    return CliLoad(seed, OUT, SRC, mode)


def self_command(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", *extra]


def run_child_json(cmd, env=None) -> dict:
    """Run one child to its end and parse the last line of its stdout."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(wl, item):
    try:
        out, cpu = wl.run_item(item)
        return out, cpu, None
    except Exception:
        return None, 0.0, traceback.format_exc()


def timed_phase(wl, seconds: float):
    """Whole rounds until the items have used `seconds` of CPU."""
    records = []
    busy = 0.0
    r = 0
    while True:
        for item in wl.round(r):
            out, cpu, err = run_one(wl, item)
            records.append((item, out, cpu, err))
            busy += cpu
        r += 1
        if busy >= seconds:
            return records, r


def check_records(wl, records) -> tuple[int, int]:
    """(failed, wrong): items that raised or whose check failed, and the
    part of those whose output was wrong."""
    failed = wrong = 0
    for item, out, _, err in records:
        if err is not None:
            print(f"FAILED {item.label}: {err}", file=sys.stderr)
            failed += 1
            continue
        try:
            ok = item.check(out)
        except Exception:
            print(f"CHECK RAISED {item.label}: {traceback.format_exc()}",
                  file=sys.stderr)
            ok = False
        if not ok:
            print(f"WRONG {item.label}", file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def tail_rank(n: int) -> int:
    """0-based rank of the highest order statistic with at least ten items
    above it: the percentile that item_cpu_tail_ms reports."""
    return max(0, n - 11)


def end_to_end(records, setups, peak_mb) -> dict:
    """The end-to-end metrics of an untraced run."""
    cpus = sorted(cpu for _, _, cpu, _ in records)
    return {
        "items_per_cpu_s": {"value": len(cpus) / sum(cpus), "unit": "1/s"},
        "item_cpu_p50_ms": {"value": statistics.median(cpus) * 1e3, "unit": "ms"},
        "item_cpu_tail_ms": {"value": cpus[tail_rank(len(cpus))] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mckayq" / "__init__.py").is_file():
        print(f"error: the mckayq sources are not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)

    c0 = time.process_time()
    import mckayq.cli  # noqa: F401  (the import is part of set-up)
    import_ms = (time.process_time() - c0) * 1e3

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    mode = "span" if args.trace else "count" if args.count_pass else None
    wl = make_workload(args.workload, args.seed, mode)
    setup_s = time.process_time()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.count_pass:
            import layers
            print(json.dumps({"counts": layers.count_pass(wl)}))
            return 0

        if tracer is not None:
            wl.tracer = tracer
            tracer.install_items(wl)
            tracer.start_timed_phase()
        records, rounds = timed_phase(wl, args.seconds)
        peak_mb = wl.peak_rss_mb()
        if tracer is not None:
            tracer.stop()

        if tracer is None:
            setups = [setup_s] + [
                run_child_json(self_command(args, "--setup-only"))["setup_s"]
                for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(records, setups, peak_mb)
        else:
            env = dict(os.environ, PYTHONHASHSEED="0")
            counts = run_child_json(self_command(args, "--count-pass"), env)["counts"]
            metrics = layers.per_layer(tracer, wl, counts, import_ms, OUT)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         args.workload, args.seed)

        failed, wrong = check_records(wl, records)
        print(f"{args.workload}: {len(records)} items in {rounds} rounds, "
              f"{failed} failed", file=sys.stderr)
        print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
