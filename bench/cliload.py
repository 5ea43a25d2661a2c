"""`cli`: fresh `python -m mckayq.cli` processes, one after another.

A round is the same 41 commands: `table` for nine groups (products
C:2xBD:24 and C:5xC:7 among them) written as JSON files, `verify` on
eight of those files (C:48 and C:64 among them), `quiver --out` for the
natural and regular representations of 2I, BD:48, C:48 and C:2xBD:24,
and `analyze` and `check-mckay` on each of those eight quiver files.
The seed sets the order of the commands within each of two stages
(files are written in the first stage and read in the second).  An
item's CPU time is the child's user plus system time from its rusage,
so it includes interpreter start, import and cold caches.

Outputs are checked after the timed phase: exit codes against the
documented contract, table files against numeric orthogonality, quiver
files against floating-point inner products of the characters in the
table files, analyze reports against sympy and reachability, and the
stdout of three commands against a second invocation, byte for byte.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys

import oracle
from common import Item, Workload, seeded

TABLES = ("2I", "2O", "2T", "BD:24", "BD:48", "C:48", "C:64", "C:2xBD:24", "C:5xC:7")
VERIFIED = ("2I", "2O", "2T", "BD:24", "BD:48", "C:48", "C:64", "C:2xBD:24")
QUIVERS = ("2I", "BD:48", "C:48", "C:2xBD:24")
REPS = ("natural", "regular")
REPEATED = (("verify", "2I"), ("analyze", "2I/natural"), ("check-mckay", "2I/natural"))
# the relations `verify` is documented to check: orthogonality, the class
# equation, inverse pairing and the squaring-map indicators
REQUIRED_VERIFY_CHECKS = {"row-orthogonality", "column-orthogonality", "class-sizes",
                          "inverse-consistency", "power2-indicators"}

_VALUE = re.compile(r"^[0-9E()+\-*/^ ]+$")


def _fname(spec: str) -> str:
    return spec.replace(":", "_")


def table_value(text: str) -> complex:
    """Numeric value of a character value printed in the E(n) grammar."""
    if not _VALUE.match(text):
        raise ValueError(f"unexpected character value {text!r}")
    expr = text.replace("^", "**").replace("E(", "_E(")
    return complex(eval(expr, {"__builtins__": {}},
                        {"_E": lambda n: cmath.exp(2j * math.pi / n)}))


def _order_of(spec: str) -> int:
    order = 1
    for part in spec.split("x"):
        order *= {"2I": 120, "2O": 48, "2T": 24}.get(part) or int(part.split(":")[1])
    return order


class CliLoad(Workload):

    def __init__(self, seed: int, out_dir, src, mode: str | None = None):
        """`mode` None runs `python -m mckayq.cli`; "span" and "count" run
        each command through bench/child.py for a traced run."""
        self.seed = seed
        self.mode = mode
        self.tracer = None
        self.workdir = os.path.join(out_dir, f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.prefix = [sys.executable, "-m", "mckayq.cli"]
        self.result_file = os.path.join(self.workdir, "child-result.json")
        if mode:
            self.prefix = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                           mode, self.result_file, "--"]
        self.child_import_ms = []
        self.child_cpu = {}  # (command, target) -> CPU seconds per invocation
        self.max_child_rss_kb = 0
        first, second = [], []
        for spec in TABLES:
            first.append(("table", spec, ["table", spec, "--format", "json",
                                          "--out", f"t_{_fname(spec)}.json"]))
        for spec in QUIVERS:
            for rep in REPS:
                first.append(("quiver", f"{spec}/{rep}",
                              ["quiver", spec, "--rep", rep,
                               "--out", f"q_{_fname(spec)}_{rep}.json"]))
                for sub in ("analyze", "check-mckay"):
                    second.append((sub, f"{spec}/{rep}",
                                   [sub, f"q_{_fname(spec)}_{rep}.json",
                                    "--format", "json"]))
        for spec in VERIFIED:
            second.append(("verify", spec, ["verify", f"t_{_fname(spec)}.json",
                                            "--format", "json"]))
        self.stages = (first, second)
        self.results = {}   # (command, target) -> outputs of every round
        self.repeats = {}   # (command, target) -> output of a later invocation

    def round(self, r: int) -> list[Item]:
        rng = seeded(self.seed, "cli", r)
        items = []
        for stage in self.stages:
            stage = list(stage)
            rng.shuffle(stage)
            items.extend(self._item(*c) for c in stage)
        return items

    def _spawn(self, argv) -> tuple[dict, float]:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=170)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.max_child_rss_kb = max(self.max_child_rss_kb, after.ru_maxrss)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return {"rc": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}, cpu

    def _item(self, command, target, args) -> Item:
        """An item whose `run` names the command; run_item spawns it."""
        return Item(f"{command} {target}", lambda: (command, target, args),
                    lambda out: self._check(command, target, out))

    def run_item(self, item):
        command, target, args = item.run()
        out, cpu = self._spawn(self.prefix + args)
        if command in ("table", "quiver"):
            with open(os.path.join(self.workdir, args[-1]), "rb") as fh:
                out["file"] = fh.read()
        self.results.setdefault((command, target), []).append(out)
        self.child_cpu.setdefault((command, target), []).append(cpu)
        if self.mode == "span":
            with open(self.result_file, encoding="utf-8") as fh:
                data = json.load(fh)
            self.child_import_ms.append(data["import_ms"])
            for metric, (seconds, calls) in data["totals"].items():
                self.tracer.add(metric, seconds, calls)
        return out, cpu

    def count_round(self) -> dict:
        """Call counts summed over the children of the first round."""
        total = {}
        for item in self.round(0):
            self.run_item(item)
            with open(self.result_file, encoding="utf-8") as fh:
                for name, n in json.load(fh)["counts"].items():
                    total[name] = total.get(name, 0) + n
        return total

    def layer_metrics(self) -> dict:
        """Median child CPU per subcommand, median import time, and the
        median ratio of analyze to check-mckay CPU on the same quiver."""
        def ms(command):
            cpus = [c for (cmd, _), cs in self.child_cpu.items() if cmd == command for c in cs]
            return {"value": statistics.median(cpus) * 1e3, "unit": "ms"}

        ratios = [statistics.median(cs) / statistics.median(self.child_cpu[("check-mckay", t)])
                  for (cmd, t), cs in self.child_cpu.items() if cmd == "analyze"]
        return {
            "cli.table_ms": ms("table"), "cli.quiver_ms": ms("quiver"),
            "cli.verify_ms": ms("verify"), "cli.analyze_ms": ms("analyze"),
            "cli.check_mckay_ms": ms("check-mckay"),
            "cli.import_ms": {"value": statistics.median(self.child_import_ms), "unit": "ms"},
            "cli.analyze_to_battery_ratio": {"value": statistics.median(ratios),
                                             "unit": "ratio"},
        }

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0

    def corrupt(self, item, out):
        return dict(out, rc=out["rc"] + 1)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- checks ------------------------------------------------------------

    def _numeric_table(self, spec):
        data = json.loads(self.results[("table", spec)][0]["file"])
        num = [[table_value(v) for v in row] for row in data["characters"]]
        return data, num, [c["size"] for c in data["classes"]]

    def _check(self, command, target, out) -> bool:
        if command == "table":
            return self._check_table(target, out)
        if command == "verify":
            rep = json.loads(out["stdout"])
            names = {c["name"] for c in rep["checks"]}
            return (out["rc"] == 0 and rep["all_pass"] is True
                    and REQUIRED_VERIFY_CHECKS <= names
                    and all(c["passed"] for c in rep["checks"])
                    and self._same_stdout(command, target, out))
        spec, rep = target.split("/")
        if command == "quiver":
            return self._check_quiver(spec, rep, out)
        q = json.loads(self.results[("quiver", target)][0]["file"])
        A = q["adjacency"]
        data, num, sizes = self._numeric_table(spec)
        rho_vals = self._rho_values(spec, rep, num)
        kernel = oracle.kernel_count(rho_vals)
        if command == "check-mckay":
            return self._check_battery(json.loads(out["stdout"]), out["rc"], A, kernel) \
                and self._same_stdout(command, target, out)
        report = json.loads(out["stdout"])
        if out["rc"] != 0:
            return False
        coeffs = oracle.parse_int_poly(report["char_poly"])
        if not oracle.charpoly_matches(A, coeffs, random.Random(len(A))):
            return False
        if sorted(tuple(v - 1 for v in c["vertices"]) for c in report["components"]) \
                != oracle.weak_blocks(A):
            return False
        for w in report["weightings"]:
            if w["k"] is not None:
                comp = [v - 1 for v in w["vertices"]]
                if any(sum(A[i][j] * w["weights"][b] for b, j in enumerate(comp))
                       != w["k"] * w["weights"][a] for a, i in enumerate(comp)):
                    return False
        checked = self.results.get(("check-mckay", target))
        if checked and json.loads(checked[0]["stdout"]) != report["battery"]:
            return False
        return self._check_battery(report["battery"], None, A, kernel) and \
            self._same_stdout(command, target, out)

    def _rho_values(self, spec, rep, num):
        dims = [round(row[0].real) for row in num]
        if rep == "regular":
            return oracle.rep_values(num, dims)
        # rho * chi_1 = rho, so the trivial vertex's row of the quiver
        # gives rho's multiplicities
        q = json.loads(self.results[("quiver", f"{spec}/{rep}")][0]["file"])
        first = q["adjacency"][0]
        return [sum(a * num[j][c] for j, a in enumerate(first)) for c in range(len(num))]

    def _check_table(self, spec, out) -> bool:
        if out["rc"] != 0 or out["stdout"]:
            return False
        data = json.loads(out["file"])
        num = [[table_value(v) for v in row] for row in data["characters"]]
        sizes = [c["size"] for c in data["classes"]]
        order = _order_of(spec)
        dims = [row[0].real for row in num]
        return (data["order"] == order and sum(sizes) == order
                and abs(sum(d * d for d in dims) - order) < oracle.EPS
                and oracle.table_is_orthogonal(num, sizes, order))

    def _check_quiver(self, spec, rep, out) -> bool:
        if out["rc"] != 0 or out["stdout"]:
            return False
        q = json.loads(out["file"])
        A = q["adjacency"]
        data, num, sizes = self._numeric_table(spec)
        dims = [round(row[0].real) for row in num]
        if q["weights"] != dims:
            return False
        if rep == "regular":
            return A == [[a * b for b in dims] for a in dims]
        # every row must match the inner products <rho chi_i, chi_j> of the
        # representation that the trivial row names, of dimension 2 (4 for
        # the product of two natural representations)
        rho_vals = self._rho_values(spec, rep, num)
        if abs(rho_vals[0] - (2 if "x" not in spec else 4)) > oracle.EPS:
            return False
        return oracle.matrices_match(
            A, oracle.float_mckay(num, sizes, data["order"], rho_vals))

    def _check_battery(self, battery, rc, A, kernel) -> bool:
        statuses = [t["status"] for t in battery["tests"]]
        if rc is not None and rc != (0 if all(s == "pass" for s in statuses) else 1):
            return False
        tests = {t["name"]: t for t in battery["tests"]}
        blocks = oracle.strong_blocks(A)
        if len(blocks) != kernel:
            return False
        if (tests["strong-connectivity"]["status"] == "pass") != (kernel == 1):
            return False
        if kernel == 1 and "fail" in statuses:
            return False
        return tests["charpoly-solvability"]["status"] != "fail"

    def _same_stdout(self, command, target, out) -> bool:
        """Byte-identical stdout across every invocation of the command;
        three commands are invoked once more, outside the timed phase."""
        runs = self.results[(command, target)]
        if (command, target) in REPEATED and (command, target) not in self.repeats:
            argv = next(c[2] for stage in self.stages for c in stage
                        if c[:2] == (command, target))
            self.repeats[(command, target)] = self._spawn(self.prefix + argv)[0]
        again = self.repeats.get((command, target))
        return all(o["stdout"] == out["stdout"] and o["rc"] == out["rc"]
                   for o in runs + ([again] if again else []))
