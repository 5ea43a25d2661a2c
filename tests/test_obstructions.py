"""The five necessary-condition tests and their verdict logic."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq.catalog import natural_rep, parse_group_spec
from mckayq.mckay import McKayQuiver
from mckayq.obstructions import (
    CONSISTENT,
    INCONCLUSIVE,
    OBSTRUCTED,
    BatteryTest,
    ObstructionReport,
    QuiverAnalysis,
    mckay_obstruction_battery,
)
from mckayq.quiver import Quiver, reduced_weight_vector


def mk(adj, weights=None):
    return Quiver([f"v{i}" for i in range(len(adj))], adj, weights)


def by_name(report):
    return {t.name: t for t in report.tests}


def test_real_mckay_quiver_passes_everything():
    b12 = parse_group_spec("BD:12")
    q = McKayQuiver(b12, natural_rep(b12)).to_quiver()
    report = mckay_obstruction_battery(q)
    assert report.verdict == CONSISTENT
    assert [t.status for t in report.tests] == ["pass"] * 5
    names = [t.name for t in report.tests]
    assert names == ["strong-connectivity", "reduced-weighting",
                     "weight-arithmetic", "weight-one-orbit",
                     "charpoly-solvability"]
    t = by_name(report)
    assert t["reduced-weighting"].witness == {"k": 2, "weights": [1, 1, 1, 1, 2, 2]}
    assert "obstruction battery: consistent" in str(report)


def test_minor_block_fails_orbit_test():
    # strongly connected, weighted (1,1,1), but the two looped vertices
    # cannot be swapped with the loopless one
    block = mk([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    report = mckay_obstruction_battery(block)
    assert report.verdict == OBSTRUCTED
    t = by_name(report)
    assert t["strong-connectivity"].status == "pass"
    assert t["reduced-weighting"].status == "pass"
    assert t["reduced-weighting"].witness == {"k": 2, "weights": [1, 1, 1]}
    assert t["weight-arithmetic"].status == "pass"
    assert t["weight-one-orbit"].status == "fail"
    assert t["weight-one-orbit"].witness == [[1, 2], [3]]
    assert t["charpoly-solvability"].status == "pass"


def test_weights_without_one_fail_arithmetic():
    q = mk([[1, 2], [3, 2]])
    report = mckay_obstruction_battery(q)
    t = by_name(report)
    assert t["reduced-weighting"].status == "pass"
    assert t["reduced-weighting"].witness["weights"] == [2, 3]
    assert t["weight-arithmetic"].status == "fail"
    assert "no weight-1 vertex" in t["weight-arithmetic"].detail
    assert t["weight-one-orbit"].status == "unknown"
    assert report.verdict == OBSTRUCTED


def test_disconnected_path_short_circuits():
    path = mk([[0, 1], [0, 0]])
    report = mckay_obstruction_battery(path)
    t = by_name(report)
    assert t["strong-connectivity"].status == "fail"
    assert t["strong-connectivity"].witness == [[1], [2]]
    assert t["reduced-weighting"].status == "unknown"
    assert t["weight-arithmetic"].status == "unknown"
    assert t["weight-one-orbit"].status == "unknown"
    assert t["charpoly-solvability"].status == "pass"   # runs regardless
    assert report.verdict == OBSTRUCTED


def test_nonsolvable_charpoly_is_an_obstruction():
    adj = [
        [1, 0, 0, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 1, 0, 1, 0],
        [1, 0, 1, 0, 1],
        [1, 1, 0, 0, 1],
    ]
    report = mckay_obstruction_battery(mk(adj))
    assert report.verdict == OBSTRUCTED
    t = by_name(report)
    assert t["charpoly-solvability"].status == "fail"
    (entry,) = t["charpoly-solvability"].witness
    assert entry["component"] == [1, 2, 3, 4, 5]
    cert = entry["verdict"]["certificates"][0]
    assert cert["factor"] == "x^5-3*x^4-x^3+5*x^2-1"
    assert entry["verdict"]["status"] == "not_solvable"


def test_no_positive_weighting():
    # directed 2-path plus a return arrow of multiplicity 2: strongly
    # connected but the only eigenvalues are irrational
    q = mk([[0, 1], [2, 1]])
    report = mckay_obstruction_battery(q)
    t = by_name(report)
    assert t["strong-connectivity"].status == "pass"
    # x^2-x-2 = (x-2)(x+1); k=2 gives w=(1,2): this one actually passes
    assert t["reduced-weighting"].status == "pass"
    assert t["reduced-weighting"].witness == {"k": 2, "weights": [1, 2]}

    # x^2-x-1 has no rational root, so no integer eigen-weighting exists
    q2 = mk([[0, 1], [1, 1]])
    report2 = mckay_obstruction_battery(q2)
    t2 = by_name(report2)
    assert t2["strong-connectivity"].status == "pass"
    assert t2["reduced-weighting"].status == "fail"
    assert report2.verdict == OBSTRUCTED


def test_inconclusive_verdict():
    report = ObstructionReport([
        BatteryTest("a", "pass", ""),
        BatteryTest("b", "unknown", "could not decide"),
    ])
    assert report.verdict == INCONCLUSIVE
    assert "[unknown] b" in str(report)


def test_json_shape():
    block = mk([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    data = mckay_obstruction_battery(block).to_json()
    assert data["verdict"] == "obstructed"
    assert len(data["tests"]) == 5
    for entry in data["tests"]:
        assert set(entry) <= {"name", "status", "detail", "witness"}
        assert entry["status"] in ("pass", "fail", "unknown")
    json.dumps(data, sort_keys=True)


@st.composite
def small_quivers(draw):
    """Quivers on 1 to 8 vertices with sparse arrow counts, so that many
    have several strong components, loopless single vertices among them."""
    n = draw(st.integers(1, 8))
    cell = st.sampled_from([0, 0, 0, 1, 1, 2])
    return mk(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(small_quivers())
def test_weighting_of_each_strong_component(q):
    a = QuiverAnalysis(q)
    for comp in a.strong_components:
        assert a.weighting(comp) == reduced_weight_vector(q.induced(comp))
