"""The command-line surface: exit codes, formats, determinism."""

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mckayq.catalog import dicyclic_table, natural_rep, parse_group_spec
from mckayq.chartab import table_to_json
from mckayq.cli import main
from mckayq.mckay import McKayQuiver
from mckayq.obstructions import mckay_obstruction_battery
from mckayq.quiver import Quiver


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI as a fresh process, where an escaping exception would print
    a traceback and exit 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mckayq.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def bd12_quiver_file(tmp_path):
    b12 = dicyclic_table(12)
    q = McKayQuiver(b12, natural_rep(b12)).to_quiver()
    path = tmp_path / "bd12.json"
    path.write_text(json.dumps(q.to_json()))
    return str(path)


@pytest.fixture
def bad_sizes_table_file(tmp_path):
    data = table_to_json(dicyclic_table(12))
    for cls, size in zip(data["classes"], (1, 1, 2, 2, 3, 3)):
        cls["size"] = size
    path = tmp_path / "bad_sizes.json"
    path.write_text(json.dumps(data))
    return str(path)


# -- table ----------------------------------------------------------------------


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "BD:12")
    assert code == 0
    assert "BD12" in out and "chi6" in out


def test_table_json_deterministic(capsys):
    code, out1, _ = run(capsys, "table", "BD:24", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "table", "BD:24", "--format", "json")
    assert out1 == out2
    assert out1.endswith("\n")
    data = json.loads(out1)
    assert data["order"] == 24
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out1


def test_table_from_file_and_force(capsys, bad_sizes_table_file):
    code, _, err = run(capsys, "table", "--table", bad_sizes_table_file)
    assert code == 3 and "error" in err
    code, out, _ = run(capsys, "table", "--table", bad_sizes_table_file, "--force")
    assert code == 0


def test_bad_group_specs(capsys):
    for spec in ("BD:13", "D:8", "nonsense"):
        code, _, err = run(capsys, "table", spec)
        assert code == 2 and "error" in err
    code, _, err = run(capsys, "table")
    assert code == 2


@pytest.mark.parametrize("spec, exponent", [("C:1031", 1031),
                                            ("C:3xC:512", 1536)])
def test_group_exponent_bound(capsys, spec, exponent):
    start = time.process_time()
    code, _, err = run(capsys, "table", spec)
    assert time.process_time() - start < 1.0
    assert code == 2 and f"exponent {exponent}, above 1024" in err


@pytest.mark.parametrize("spec, order", [("C:512", 512), ("BD:508", 508),
                                         ("BD:2048", 2048),
                                         ("x".join(["C:2"] * 9), 512)])
def test_group_order_bound(capsys, spec, order):
    start = time.process_time()
    code, _, err = run(capsys, "table", spec)
    assert time.process_time() - start < 1.0
    assert code == 2 and f"order {order}, above 256" in err


# -- quiver ----------------------------------------------------------------------


def test_quiver_text_and_json(capsys):
    code, out, _ = run(capsys, "quiver", "BD:12")
    assert code == 0
    assert "dimension 2" in out and "(dim 2)" in out

    code, out, _ = run(capsys, "quiver", "BD:12", "--rep", "5", "--format", "json")
    assert code == 0
    q = Quiver.from_json(out)
    assert q.adjacency[4][4] == 1


def test_quiver_rep_forms(capsys):
    code, out1, _ = run(capsys, "quiver", "C:4", "--rep", "natural",
                        "--format", "json")
    code2, out2, _ = run(capsys, "quiver", "C:4", "--rep", "0,1,0,1",
                         "--format", "json")
    assert code == code2 == 0 and out1 == out2

    code, out, _ = run(capsys, "quiver", "C:3", "--rep", "regular",
                       "--format", "json")
    assert code == 0
    assert Quiver.from_json(out).adjacency == ((1, 1, 1),) * 3

    for bad in ("9", "0", "1,2", "x"):
        code, _, err = run(capsys, "quiver", "C:3", "--rep", bad)
        assert code == 2, bad


def test_quiver_dot_output(capsys):
    code, out, _ = run(capsys, "quiver", "C:3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph quiver {")
    # natural rep of C:3 doubles every edge into undirected pairs
    assert "[dir=none]" in out


def test_out_as_literal_format_name(capsys):
    code, out_flag, _ = run(capsys, "quiver", "BD:12", "--out", "dot")
    code2, out_fmt, _ = run(capsys, "quiver", "BD:12", "--format", "dot")
    assert code == code2 == 0
    assert out_flag == out_fmt


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "q.json"
    code, out, _ = run(capsys, "quiver", "BD:12", "--out", str(target))
    assert code == 0 and out == ""
    q = Quiver.from_json(target.read_text())
    assert q.n == 6
    # suffix picks the format; an explicit --format overrides it
    target2 = tmp_path / "q.dot"
    code, _, _ = run(capsys, "quiver", "BD:12", "--out", str(target2))
    assert target2.read_text().startswith("digraph")


# -- analyze -----------------------------------------------------------------------


def test_analyze_text(capsys, bd12_quiver_file):
    code, out, _ = run(capsys, "analyze", bd12_quiver_file)
    assert code == 0
    assert "quiver on 6 vertices" in out
    assert "ADE class: D~5" in out
    assert "k = 2, weights [1, 1, 1, 1, 2, 2]" in out
    assert "battery verdict: consistent" in out


def test_analyze_json(capsys, bd12_quiver_file):
    code, out, _ = run(capsys, "analyze", bd12_quiver_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ade"] == "D~5"
    assert report["battery"]["verdict"] == "consistent"
    assert report["solvability"]["status"] == "solvable"
    assert report["char_poly"].startswith("x^6")
    total = 0
    for entry in report["factorization"]:
        total += entry["multiplicity"] * (entry["factor"].count("x"))
    assert report["components"][0]["vertices"] == [1, 2, 3, 4, 5, 6]


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"vertices": ["a", "b"], "adjacency": [[0, 1]]}')
    code, _, err = run(capsys, "analyze", str(ragged))
    assert code == 2
    booleans = tmp_path / "booleans.json"
    booleans.write_text('{"vertices": ["a", "b"], "weights": [true, true], '
                        '"adjacency": [[false, true], [true, false]]}')
    code, _, err = run(capsys, "analyze", str(booleans))
    assert code == 2 and "non-negative integers" in err


# -- check-mckay --------------------------------------------------------------------


def test_check_mckay_pass(capsys, bd12_quiver_file):
    code, out, _ = run(capsys, "check-mckay", bd12_quiver_file)
    assert code == 0
    assert "obstruction battery: consistent" in out


def test_check_mckay_fail(capsys, tmp_path):
    minor = Quiver(["a", "b", "c"], [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    path = tmp_path / "minor.json"
    path.write_text(json.dumps(minor.to_json()))
    code, out, _ = run(capsys, "check-mckay", str(path), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "obstructed"
    failing = [t["name"] for t in data["tests"] if t["status"] == "fail"]
    assert failing == ["weight-one-orbit"]


def test_check_mckay_inconclusive_exits_1(capsys, tmp_path):
    # a genuine McKay quiver whose quintic char poly factor gets no
    # solvability witness within three primes
    path = tmp_path / "c11.json"
    code, _, _ = run(capsys, "quiver", "C:11", "--rep", "natural", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check-mckay", str(path), "--prime-budget", "3",
                       "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "inconclusive"
    assert {t["status"] for t in data["tests"]} == {"pass", "unknown"}


# -- verify ------------------------------------------------------------------------


def test_verify_good(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(table_to_json(parse_group_spec("2T"))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.count("[pass]") == 7 and "[fail]" not in out


def test_verify_flags_bad_sizes(capsys, bad_sizes_table_file):
    code, out, _ = run(capsys, "verify", bad_sizes_table_file)
    assert code == 1
    assert "row-orthogonality" in out
    code, out, _ = run(capsys, "verify", bad_sizes_table_file, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert not data["all_pass"]
    failed = {c["name"] for c in data["checks"] if not c["passed"]}
    assert "row-orthogonality" in failed


@pytest.mark.parametrize("value", ["(0)^-1", "(E(4)-E(4))^-1"])
def test_verify_zero_to_a_negative_power(tmp_path, value):
    data = table_to_json(parse_group_spec("C:2"))
    data["characters"][1][1] = value
    path = tmp_path / "zero_power.json"
    path.write_text(json.dumps(data))
    proc = run_process("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "zero to a negative power" in proc.stderr


@pytest.mark.parametrize("command", [["verify"], ["analyze"], ["check-mckay"],
                                     ["table", "--table"]])
def test_deeply_nested_json_exits_2(tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    proc = run_process(*command, str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not valid JSON" in proc.stderr


def test_verify_power_above_the_bound(tmp_path):
    data = table_to_json(parse_group_spec("C:2"))
    data["characters"][1][1] = "(2)^100000000"
    path = tmp_path / "huge_power.json"
    path.write_text(json.dumps(data))
    proc = run_process("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "exponent 100000000 is above" in proc.stderr


def test_verify_a_one_class_table_of_e1018(tmp_path):
    # E(1018) = -E(509)^255: its conductor descends in closed form
    path = tmp_path / "e1018.json"
    path.write_text(json.dumps({
        "name": "x", "order": 1, "characters": [["E(1018)"]],
        "classes": [{"name": "1a", "size": 1, "power2": 0, "inverse": 0}]}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_process("verify", str(path))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert proc.returncode == 1 and proc.stderr == ""
    assert "-E(509)^255" in proc.stdout
    assert cpu < 2.0, cpu


def test_analyze_huge_row_sum_is_fast(tmp_path):
    """The weighting tries only the integer roots of the char poly, not
    every k between the row sums (here a million of them)."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"vertices": ["a", "b"],
                                "adjacency": [[1, 1], [1, 1000000]]}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_process("analyze", str(path))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == """quiver on 2 vertices
ADE class: none
components:
  vertices 1,2  ADE none
reduced weightings per strong component:
  vertices 1,2: none
char poly: x^2-1000001*x+999999
factorization: (x^2-1000001*x+999999)
solvability: solvable
battery:
  [pass] strong-connectivity: one strongly connected block
  [fail] reduced-weighting: no integer eigenvalue admits a positive weight vector
  [unknown] weight-arithmetic: needs a reduced weight vector
  [unknown] weight-one-orbit: needs a reduced weight vector
  [pass] charpoly-solvability: every component's characteristic polynomial is solvable by radicals
battery verdict: obstructed
"""
    assert cpu < 1.0, cpu


@pytest.mark.parametrize("command", ["analyze", "check-mckay"])
def test_oversized_quiver_fails_fast(tmp_path, command):
    """A quiver with more vertices than the factoring bound is rejected
    once it is loaded, before its char poly is computed."""
    n = 1000
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": [f"v{i}" for i in range(n)],
        "adjacency": [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_process(command, str(path))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: degree 1000 is above the supported bound 64\n"
    assert cpu < 2.0, cpu


def test_oversized_quiver_bound_is_the_vertex_count(capsys, tmp_path):
    # 65 isolated vertices have only linear char polys, but the CLI
    # rejects them all the same; the library battery still runs
    n = 65
    q = Quiver([f"v{i}" for i in range(n)], [[0] * n for _ in range(n)])
    path = tmp_path / "isolated.json"
    path.write_text(json.dumps(q.to_json()))
    for command in ("analyze", "check-mckay"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: degree 65 is above the supported bound 64\n"
    assert mckay_obstruction_battery(q).verdict == "obstructed"
    path.write_text(json.dumps(q.induced(range(64)).to_json()))
    code, _, err = run(capsys, "check-mckay", str(path))
    assert code == 1 and err == ""


@pytest.mark.parametrize("command", ["analyze", "check-mckay"])
def test_prime_budget_above_the_bound_exits_2(bd12_quiver_file, command):
    proc = run_process(command, bd12_quiver_file, "--prime-budget", "1000001")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("error: prime budget 1000001 is above the "
                           "supported bound 1000000\n")


def random_regular(n: int, d: int, seed: int) -> list[list[int]]:
    """A d-regular simple graph on n vertices by the pairing model: the
    n*d half-edges are shuffled and paired off, and the draw is repeated
    until no pair is a loop or a second edge."""
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(d)]
        rng.shuffle(ends)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            adj = [[0] * n for _ in range(n)]
            for a, b in pairs:
                adj[a][b] = adj[b][a] = 1
            return adj


@pytest.mark.parametrize("n, d", [(24, 3), (64, 3), (64, 4)])
def test_random_regular_quiver_is_obstructed_fast(tmp_path, n, d):
    """Every vertex of a regular graph has the same local invariants, and
    all weights are 1; on these graphs individualising one vertex tells
    all vertices apart, so the weight-one-orbit test fails at once."""
    path = tmp_path / "regular.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(n)],
                                "adjacency": random_regular(n, d, seed=0)}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_process("check-mckay", str(path), "--format", "json")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert proc.returncode == 1 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["verdict"] == "obstructed"
    status = {t["name"]: t["status"] for t in report["tests"]}
    assert status["reduced-weighting"] == "pass"
    assert status["weight-one-orbit"] == "fail"
    assert cpu < 10.0, cpu
