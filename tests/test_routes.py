"""Each faster route against the slower route it replaced.

Parsing E(n)^k, `decompose`, `dual_index` and the natural multiplicities
of direct products run on the table engine or on canonical roots of
unity; products of rows are recognised on the engine's modular image;
`analyze` shares one QuiverAnalysis with the battery it embeds.
These tests recompute the same quantity the old way (Cyclotomic
arithmetic, `inner_product`, separate library calls) and compare, or
count calls to show that a shared quantity (one analysis, one dual
group action per table) is computed once.
"""

import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq import chartab, cyclotomic, galois, obstructions
from mckayq.catalog import (
    catalog_specs,
    cyclic_table,
    dicyclic_table,
    natural_rep,
    parse_group_spec,
)
from mckayq.chartab import (
    ClassFunction,
    NotACharacter,
    TableFormatError,
    decompose,
    inner_product,
    table_from_json,
    table_to_json,
)
from mckayq.cli import main
from mckayq.cyclotomic import (
    MAX_CONDUCTOR,
    Cyclotomic,
    CyclotomicSyntaxError,
    E,
    parse_cyclotomic,
)
from mckayq.galois import component_solvability, solvability
from mckayq.mckay import (
    InternalInconsistency,
    McKayQuiver,
    character_walk_matrix,
    dual_action_simply_transitive,
    dual_group_action,
    mckay_matrix,
)
from mckayq.polynomials import cyclotomic_polynomial, is_prime
from mckayq.quiver import (
    Quiver,
    char_poly,
    reduced_weight_vector,
    strongly_connected_components,
    weakly_connected_components,
)


# -- E(n)^k is the root of unity itself ------------------------------------------


@st.composite
def root_powers(draw):
    n = draw(st.integers(1, 60))
    k = draw(st.integers(-2 * n, 2 * n))
    ws = draw(st.sampled_from(["", " ", "  "]))
    coeff = draw(st.sampled_from([None, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)]))
    minus = draw(st.booleans())
    text = f"E({ws}{n}{ws}){ws}^{ws}{k}"
    value = E(n) ** k
    if coeff is not None:
        text = f"{coeff}{ws}*{ws}{text}"
        value = coeff * value
    if minus:
        text = f"{ws}-{ws}{text}"
        value = -value
    return text, value


@settings(max_examples=200, deadline=None)
@given(root_powers())
def test_parsed_root_power_matches_repeated_multiplication(case):
    text, value = case
    assert parse_cyclotomic(text) == value


def test_parsed_root_powers_fixed():
    assert parse_cyclotomic("E(4)^0") == 1
    assert parse_cyclotomic("E(4)^-1") == E(4) ** 3
    assert parse_cyclotomic("E(6)^3") == -1
    assert parse_cyclotomic("E(12)^4") == E(3)
    assert parse_cyclotomic("(E(4))^3") == E(4) ** 3
    assert parse_cyclotomic("(1+E(4))^2") == 2 * E(4)
    assert parse_cyclotomic("-E(8)^3+E(8)^5") == -E(8) ** 3 - E(8)


# -- the conductor bound ----------------------------------------------------------


def test_conductor_bound_rejects_before_building():
    parse_cyclotomic("E(3)+E(4)")
    rows_before = cyclotomic._reduction_rows.cache_info().currsize
    start = time.process_time()
    for text, pos in (("E(100003)", 2), ("2*E( 100003)^5", 4),
                      (f"E({MAX_CONDUCTOR + 1})", 2),
                      ("E(3)*E(512)", 7), ("E(4)+E(1009)", 7)):
        with pytest.raises(CyclotomicSyntaxError) as info:
            parse_cyclotomic(text)
        assert info.value.position == pos, text
    assert time.process_time() - start < 0.5
    assert cyclotomic._reduction_rows.cache_info().currsize == rows_before
    # the bound itself is accepted
    assert parse_cyclotomic(f"E({MAX_CONDUCTOR})^{MAX_CONDUCTOR}") == 1


def test_verify_rejects_a_huge_conductor_with_exit_2(capsys, tmp_path):
    data = table_to_json(cyclic_table(2))
    data["characters"][1][1] = "E(100003)"
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    start = time.process_time()
    assert main(["verify", str(path)]) == 2
    assert time.process_time() - start < 0.5
    err = capsys.readouterr().err
    assert "conductor 100003 is above 1024 (at position 2)" in err


def test_table_values_with_a_huge_common_conductor_are_rejected():
    data = table_to_json(cyclic_table(2))
    data["characters"][1] = ["E(512)", "E(3)"]
    with pytest.raises(TableFormatError, match="conductor 1536"):
        table_from_json(data, force=True)


def test_many_conductors_are_rejected_at_the_first_that_overflows(capsys, tmp_path):
    # 35 classes naming E(990), ..., E(1024); the lcm of the parsed
    # conductors passes MAX_CONDUCTOR at the second distinct value
    conductors = range(990, 1025)
    data = {"name": "many", "order": len(conductors),
            "classes": [{"name": f"c{n}", "size": 1, "power2": 0, "inverse": 0}
                        for n in conductors],
            "characters": [[f"E({n})" for n in conductors] for _ in conductors]}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(data))
    rows_before = cyclotomic._reduction_rows.cache_info().currsize
    assert main(["verify", str(path)]) == 2
    assert cyclotomic._reduction_rows.cache_info().currsize - rows_before <= 2
    # E(990) = -E(495)^248
    assert "conductor 490545, above 1024" in capsys.readouterr().err


def test_table_from_json_parses_each_distinct_value_once(monkeypatch):
    data = table_to_json(cyclic_table(12))
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_cyclotomic(text)

    monkeypatch.setattr(chartab, "parse_cyclotomic", counting_parse)
    again = table_from_json(data)
    assert sorted(calls) == sorted({s for row in data["characters"] for s in row})
    assert again.characters == cyclic_table(12).characters


# -- decompose on the engine --------------------------------------------------------


def decompose_by_inner_products(f):
    """The Cyclotomic route: one `inner_product` per irreducible.
    Returns (multiplicities, None), or (None, (first offending row, value))."""
    out = []
    for i in range(f.table.n_classes):
        m = inner_product(f, f.table.irreducible(i))
        if not m.is_rational or m.to_rational().denominator != 1 or m.to_rational() < 0:
            return None, (i, m)
        out.append(int(m.to_rational()))
    return tuple(out), None


def assert_routes_agree(f):
    want, bad = decompose_by_inner_products(f)
    if bad is None:
        assert decompose(f) == want
        return
    i, m = bad
    with pytest.raises(NotACharacter) as info:
        decompose(f)
    if all(f.table._engine().exponent % v.conductor == 0 for v in f.values):
        assert str(info.value) == f"multiplicity of row {i + 1} is {m}"


TABLES = ["C:6", "BD:12", "2T", "C:2xC:3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLES), st.data())
def test_engine_decompose_matches_inner_products(spec, data):
    t = parse_group_spec(spec)
    r = t.n_classes
    mult = data.draw(st.lists(st.integers(-1, 3), min_size=r, max_size=r))
    scale = data.draw(st.sampled_from([1, 1, Fraction(1, 2), Fraction(2, 3)]))
    f = ClassFunction(t, [Cyclotomic.zero()] * r)
    for k, m in enumerate(mult):
        if m:
            f = f + m * t.irreducible(k)
    assert_routes_agree(f * scale)
    a, b = data.draw(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)))
    assert_routes_agree(t.irreducible(a) * t.irreducible(b))


def test_decompose_recognises_every_irreducible(monkeypatch):
    inner = _counting(monkeypatch, chartab._TableEngine, "row_inner")
    for spec in catalog_specs(48):
        t = parse_group_spec(spec)
        r = t.n_classes
        for i in range(r):
            assert decompose(t.irreducible(i)) == tuple(int(k == i) for k in range(r))
    assert inner == []


def test_engine_decompose_non_characters():
    t = dicyclic_table(12)
    assert_routes_agree(t.irreducible(1) * Fraction(1, 2))
    assert_routes_agree(ClassFunction(t, [1, 0, 0, 0, 0, 0]))
    assert_routes_agree(t.irreducible(4) * E(4))
    c5 = cyclic_table(5)
    assert_routes_agree(ClassFunction(c5, [E(7)] * 5))
    with pytest.raises(NotACharacter, match="not in Q"):
        decompose(ClassFunction(c5, [E(7)] * 5))
    # E(5)-values that are no character: non-rational multiplicities
    assert_routes_agree(ClassFunction(c5, [E(5)] * 5))


# -- dual_index on the engine ----------------------------------------------------------


def test_dual_index_matches_conjugate_route():
    for spec in catalog_specs(48):
        t = parse_group_spec(spec)
        for i in range(t.n_classes):
            conj = t.row_index([v.conjugate() for v in t.characters[i]])
            assert t.dual_index(i) == conj, (spec, i)


# -- the dual group action, once per table ------------------------------------------


def test_dual_action_is_computed_once(monkeypatch):
    # the products are recognised on the table's image, so the image step
    # is what is counted
    steps = _counting(monkeypatch, chartab._TableEngine, "product_rows")
    t = parse_group_spec("BD:16")
    action = dual_group_action(t)
    assert steps
    del steps[:]
    action.clear()  # the caller's copy, not the one kept on the engine
    again = dual_group_action(t)
    assert dual_action_simply_transitive(t)
    assert sorted(again) == [0, 1, 2, 3] and steps == []


# -- products recognised on the modular image --------------------------------------------


def exact_products(t, left):
    """The exact route: each product of `left` with a row, split by
    `multiplicities` (reduction mod Phi_E, then `row_inner`)."""
    eng = t._engine()
    rows = []
    for i, row in enumerate(eng.vals):
        try:
            rows.append(eng.multiplicities([eng.mul(a, b) for a, b in zip(left, row)]))
        except NotACharacter:
            raise ValueError(
                f"product with row {i + 1} does not decompose integrally; "
                f"the table is not a character table") from None
    return tuple(rows)


def exact_dual_action(t):
    eng = t._engine()
    return {l: tuple(eng.row_of([eng.mul(a, b) for a, b in zip(eng.vals[l], row)])
                     for row in eng.vals)
            for l in range(t.n_classes) if t.dims[l] == 1}


def _l1(d):
    return sum(abs(c) for c in d.values())


def _check_modulus(eng, bound):
    """M > bound^phi(E), and zeta_E -> g is a ring map: Phi_E(g) = 0 mod M."""
    M = eng.modulus
    assert M > bound ** eng.phi
    assert math.prod(p for p, _ in eng.roots_mod) == M
    for p, h in eng.roots_mod:
        assert (p - 1) % eng.exponent == 0 and p < 1 << 61 and is_prime(p)
        assert eng.g % p == h
    phi = cyclotomic_polynomial(eng.exponent)
    assert sum(c * pow(eng.g, k, M) for k, c in enumerate(phi)) % M == 0


def _route_pairs(monkeypatch):
    """Wrap `product_rows` so that each call checks the modulus it used
    against the norm bound of its own multiplier."""
    orig = chartab._TableEngine.product_rows
    moduli = []

    def wrapper(eng, left):
        out = orig(eng, left)
        N = max(_l1(d) for row in eng.vals for d in row)
        assert N == eng.norm
        _check_modulus(eng, (max(_l1(d) for d in left) + 1) * N)
        moduli.append(eng.modulus)
        return out
    monkeypatch.setattr(chartab._TableEngine, "product_rows", wrapper)
    return moduli


@pytest.mark.parametrize("spec", catalog_specs(48) + ["2I"])
def test_image_route_matches_exact_route(monkeypatch, spec):
    moduli = _route_pairs(monkeypatch)
    t = parse_group_spec(spec)
    eng = t._engine()
    assert eng.integral
    assert dual_group_action(t) == exact_dual_action(t)
    for k in range(t.n_classes):
        assert mckay_matrix(t, [int(i == k) for i in range(t.n_classes)]) == \
            exact_products(t, eng.vals[k])
    m = McKayQuiver(t, natural_rep(t))
    pw = [{0: 1}] * t.n_classes
    for L in range(4):
        assert character_walk_matrix(m, L) == exact_products(t, pw)
        pw = [eng.mul(a, b) for a, b in zip(pw, m._rho_dicts)]
    assert moduli and moduli == sorted(moduli)  # M only grows


def test_recognised_products_share_the_engine_unit_rows():
    t = cyclic_table(12)
    eng = t._engine()
    rho = [0, 1] + [0] * 10
    A = mckay_matrix(t, rho)
    assert A is mckay_matrix(t, rho) is eng.product_cache[1]
    assert all(row is eng.units[(i + 1) % 12] for i, row in enumerate(A))
    assert eng.multiplicities(eng.vals[3]) is eng.units[3]
    assert mckay_matrix(t, [0, 2] + [0] * 10) == tuple(
        tuple(2 * a for a in row) for row in A)


def test_a_modulus_below_the_bound_is_rejected():
    t = cyclic_table(4)
    eng = t._engine()
    # zeta_4 -> 2 mod 5 is a ring map Z[i] -> F_5, under which 1+2i and 0
    # collide: 2+2i has the image of 1, the trivial character
    eng.roots_mod, eng.modulus = [(5, 2)], 5
    eng._build_image(0)
    assert eng.g == 2 and eng.image({0: 1, 1: 2}) == eng.image({}) == 0
    left = [{0: 2, 1: 2}] * 4
    assert eng.image(left[0]) == eng.image({0: 1})
    fake = [eng.image_rows.get(tuple(eng.image(left[0]) * x % 5 for x in row))
            for row in eng.row_images]
    assert fake == [0, 1, 2, 3]
    # B = (|2+2i|_1 + 1) * 1 = 5 and 5^phi(4) = 25 >= 5: M must grow first
    assert eng.product_rows(left) == [None] * 4
    assert eng.roots_mod[0] == (5, 2)
    _check_modulus(eng, 5)
    with pytest.raises(ValueError, match="product with row 1 does not"):
        exact_products(t, left)


def _fraction_table():
    """C:3 with its last row replaced by (1, 1/2, 1/2): no character table,
    and a coefficient that is not an integer."""
    t = cyclic_table(3)
    rows = [t.characters[0], t.characters[1], (1, Fraction(1, 2), Fraction(1, 2))]
    return chartab.CharacterTable("C3-half", 3, t.classes, rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as ex:
        return type(ex), str(ex)


def test_a_table_with_fractions_keeps_the_exact_route(monkeypatch):
    builds = _counting(monkeypatch, chartab._TableEngine, "_build_image")
    t = _fraction_table()
    eng = t._engine()
    assert not eng.integral
    for k in range(3):
        left = eng.vals[k]
        assert eng.product_rows(left) == [
            eng.row_of([eng.mul(a, b) for a, b in zip(left, row)]) for row in eng.vals]
        rho = [int(i == k) for i in range(3)]
        assert _outcome(mckay_matrix, t, rho) == _outcome(exact_products, t, left)
    assert _outcome(mckay_matrix, t, [0, 1, 0]) == (
        ValueError, "product with row 2 does not decompose integrally; "
                    "the table is not a character table")
    assert _outcome(dual_group_action, t) == (
        InternalInconsistency, "row 2 * row 2 is not a row of C3-half")
    m = McKayQuiver(t, [1, 0, 0])
    assert [character_walk_matrix(m, L) for L in range(4)] == [m.matrix] * 4
    assert builds == []


def test_roots_of_unity_are_stored_as_monomials():
    # C:n for n = 2 mod 4 has the odd conductor n/2, where -1 is no power of
    # zeta_E: half its values are stored as {e: -1}
    for n in range(1, 49):
        t = cyclic_table(n)
        eng = t._engine()
        for row, dicts, coords in zip(t.characters, eng.vals, eng.coords):
            for v, d, co in zip(row, dicts, coords):
                (e, c), = d.items()
                assert c in (1, -1) and 0 <= e < eng.exponent, (n, d)
                assert co == eng.reduce_dict(d) == eng.reduce_dict(v.terms(eng.exponent))


# -- natural multiplicities of direct products -------------------------------------------


@pytest.mark.parametrize("spec", ["C:2xBD:8", "C:3xC:3", "C:5xC:7"])
def test_direct_product_naturals_are_outer_products(spec):
    left, right = spec.split("x")
    n1 = natural_rep(parse_group_spec(left))
    n2 = natural_rep(parse_group_spec(right))
    assert natural_rep(parse_group_spec(spec)) == tuple(a * b for a in n1 for b in n2)


# -- one analysis per analyze call ----------------------------------------------------------


def mk(adj):
    return Quiver([f"v{i}" for i in range(len(adj))], adj)


QUINTIC = [  # strongly connected, char poly with a nonsolvable quintic
    [1, 0, 0, 1, 0],
    [0, 1, 1, 0, 1],
    [1, 1, 0, 1, 0],
    [1, 0, 1, 0, 1],
    [1, 1, 0, 0, 1],
]


def _quivers():
    b12 = dicyclic_table(12)
    strong = McKayQuiver(b12, natural_rep(b12)).to_quiver()
    disconnected = McKayQuiver(cyclic_table(6), (0, 0, 1, 0, 1, 0)).to_quiver()
    # the quintic block beside a looped vertex: two weak components
    blocked = mk([row + [0] for row in QUINTIC] + [[0, 0, 0, 0, 0, 2]])
    return {"strong": strong, "disconnected": disconnected,
            "non-mckay": mk(QUINTIC), "blocked": blocked}


@pytest.mark.parametrize("name", ["strong", "disconnected", "non-mckay", "blocked"])
def test_analyze_matches_library_calls(capsys, tmp_path, name):
    q = _quivers()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(q.to_json()))
    budget = "500"
    code_a = main(["analyze", str(path), "--format", "json", "--prime-budget", budget])
    report = json.loads(capsys.readouterr().out)
    code_b = main(["check-mckay", str(path), "--format", "json", "--prime-budget", budget])
    battery = json.loads(capsys.readouterr().out)
    assert code_a == 0 and code_b in (0, 1)
    assert report["battery"] == battery

    comps = strongly_connected_components(q)
    assert [w["vertices"] for w in report["weightings"]] == [
        [v + 1 for v in comp] for comp in comps]
    for w, comp in zip(report["weightings"], comps):
        rw = reduced_weight_vector(q.induced(comp))
        assert (w["k"], w["weights"]) == ((None, None) if rw is None
                                          else (rw.k, list(rw.weights)))
    cp = char_poly(q)
    assert report["char_poly"] == str(cp)
    assert report["solvability"] == solvability(cp, int(budget)).to_json()
    assert component_solvability(q, int(budget)) == tuple(
        (comp, solvability(char_poly(q.induced(comp)), int(budget)))
        for comp in weakly_connected_components(q))


def _counting(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_analyze_computes_each_quantity_once(monkeypatch, capsys, tmp_path):
    weightings_seen = _counting(monkeypatch, obstructions, "reduced_weight_vector")
    polys = _counting(monkeypatch, obstructions, "char_poly")
    witnesses = _counting(monkeypatch, galois, "_witness_for_factor")
    for name, n_weightings, n_polys in (("strong", 1, 1), ("blocked", 2, 3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_quivers()[name].to_json()))
        del weightings_seen[:], polys[:], witnesses[:]
        assert main(["analyze", str(path), "--prime-budget", "500"]) == 0
        capsys.readouterr()
        assert len(weightings_seen) == n_weightings
        assert len(polys) == n_polys
        assert len(witnesses) == len(set(witnesses))
    assert [str(f) for f in witnesses] == ["x^5-3*x^4-x^3+5*x^2-1"]


def test_battery_rejects_a_foreign_analysis():
    q = _quivers()["strong"]
    with pytest.raises(ValueError):
        obstructions.mckay_obstruction_battery(
            q, 100, analysis=obstructions.QuiverAnalysis(q, 200))


# -- verify runs the checks once ----------------------------------------------------------------


def test_verify_runs_verification_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table_to_json(parse_group_spec("2T"))))
    runs = _counting(monkeypatch, chartab, "verify_table")
    assert main(["verify", str(path), "--format", "json"]) == 0
    assert len(runs) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == chartab.verify_table(runs[0]).to_json()
