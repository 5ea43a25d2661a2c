"""One traced `mckayq` command, for the cli workload's traced runs.

    python3 bench/child.py span|count RESULT_FILE -- <mckayq arguments>

Runs `mckayq.cli.main` on the arguments, with the layer spans installed
(`span`) or under the call counter (`count`), writes what it measured to
RESULT_FILE as JSON and exits with the command's exit code.  The
command's stdout is untouched.  PYTHONPATH must name the sources.
"""

import json
import os
import sys
import time


def main() -> int:
    mode, result, sep, *argv = sys.argv[1:]
    if mode not in ("span", "count") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    c0 = time.process_time()
    import mckayq.cli
    import_ms = (time.process_time() - c0) * 1e3
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers

    if mode == "span":
        tracer = layers.Tracer()
        tracer.install()
        tracer.start_timed_phase()
        rc = mckayq.cli.main(argv)
        data = {"import_ms": import_ms, "totals": tracer.run_totals()}
    else:
        box = {}
        data = {"counts": layers.count_calls(lambda: box.setdefault("rc", mckayq.cli.main(argv)))}
        rc = box["rc"]
    sys.stdout.flush()
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
