"""Each faster route against the slower route it replaced.

Parsing E(n)^k, `decompose` and `dual_index` run on the table engine or
on canonical roots of unity; rows and products of rows are recognised on
the engine's modular image; the natural multiplicities of direct
products are outer products; `analyze` shares one QuiverAnalysis with
the battery it embeds.  These tests recompute the same quantity the old
way (Cyclotomic arithmetic, `inner_product`, an exact lookup of reduced
coordinates, separate library calls) and compare, or count calls to
show that a shared quantity (one analysis, one dual group action per
table) is computed once.
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
    character_of,
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
        eng = t._engine()
        for i in range(t.n_classes):
            conj = t.irreducible(i).conjugate()
            assert t.dual_index(i) == exact_row(eng, [v.terms(eng.exponent) for v in conj])


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


def per_row_action(t):
    """The dual action by one `product_rows` call per one-dimensional row,
    with the checks and messages of `dual_group_action`."""
    eng, r = t._engine(), t.n_classes
    action = {}
    for l in range(r):
        if t.dims[l] == 1:
            perm = tuple(eng.product_rows(eng.vals[l]))
            if None in perm:
                raise InternalInconsistency(
                    f"row {l + 1} * row {perm.index(None) + 1} is not a row of {t.name}")
            if len(set(perm)) != r:
                raise InternalInconsistency(
                    f"row {l + 1} of {t.name} does not act by a permutation")
            action[l] = perm
    return action


@pytest.mark.parametrize(
    "spec", catalog_specs(48) + ["2I", "C:2xBD:24", "BD:124", "C:64", "C:2x2I"])
def test_composed_dual_action_matches_per_row_products(monkeypatch, spec):
    t = parse_group_spec(spec)
    steps = _counting(monkeypatch, chartab._TableEngine, "product_rows")
    action = dual_group_action(t)
    assert list(action) == sorted(action)
    assert len(steps) <= len(action)
    if spec.startswith("C:") and "x" not in spec:
        # the trivial row, then row 2 generates the rest
        assert len(steps) == min(2, t.n_classes)
    assert action == per_row_action(t)


def _duplicated_c2():
    """C:2 with its sign row replaced by the trivial row: row 1 sends both
    rows to row 1, which is no permutation."""
    t = cyclic_table(2)
    return chartab.CharacterTable("C2-twice", 2, t.classes, [t.characters[0]] * 2)


def _tampered_c2xc2():
    """C:2xC:2 with row 3 replaced by b = (1, 1, 1, E(4)) and row 4 by
    row 2 times b: row 2 acts, and row 3 * row 3 is no row."""
    t = parse_group_spec("C:2xC:2")
    a, b = t.characters[1], (1, 1, 1, E(4))
    assert [v.to_int() for v in a].count(-1) == 2  # so b * b is no row
    rows = [t.characters[0], a, b, [x * y for x, y in zip(a, b)]]
    return chartab.CharacterTable("C2xC2-tampered", 4, t.classes, rows)


@pytest.mark.parametrize("make", [
    _duplicated_c2, _tampered_c2xc2,
    lambda: _table_with_denominator(2), lambda: _table_with_denominator(7)])
def test_a_hostile_dual_action_fails_as_row_by_row(make):
    composed = _outcome(dual_group_action, make())
    assert composed == _outcome(per_row_action, make())
    assert composed[0] is InternalInconsistency


# -- products recognised on the modular image --------------------------------------------


def exact_row(eng, dicts):
    """The exact lookup: the first row whose coordinates are those of
    `dicts` reduced mod Phi_E, or None."""
    key = [eng.reduce_dict(d) for d in dicts]
    return next((i for i, row in enumerate(eng.coords) if row == key), None)


def exact_products(t, left):
    """The exact route: each product of `left` with a row, found by
    `exact_row` or else split by `row_inner`."""
    eng = t._engine()
    rows = []
    for i, row in enumerate(eng.vals):
        prod = [eng.mul(a, b) for a, b in zip(left, row)]
        j = exact_row(eng, prod)
        try:
            rows.append(eng.units[j] if j is not None else eng.inner_multiplicities(prod))
        except NotACharacter:
            raise ValueError(
                f"product with row {i + 1} does not decompose integrally; "
                f"the table is not a character table") from None
    return tuple(rows)


def exact_dual_action(t):
    eng = t._engine()
    return {l: tuple(exact_row(eng, [eng.mul(a, b) for a, b in zip(eng.vals[l], row)])
                     for row in eng.vals)
            for l in range(t.n_classes) if t.dims[l] == 1}


def _l1(d):
    return sum(abs(c) for c in d.values())


def _primes_of(eng):
    """The primes of M, in order: the first _crt_prime(i, E) that divide
    it (no more than 20 are looked at)."""
    rest, primes = eng.modulus, []
    for i in range(20):
        p = chartab._crt_prime(i, eng.exponent)
        if rest % p == 0:
            rest //= p
            primes.append(p)
    assert rest == 1
    return primes


def _check_modulus(eng, bound):
    """M > bound^phi(E), M a product of primes from `_crt_prime` that
    divide no denominator of the table, and zeta_E -> g is a ring map:
    Phi_E(g) = 0 mod M."""
    M = eng.modulus
    assert M > bound ** eng.phi
    for p in _primes_of(eng):
        assert (p - 1) % eng.exponent == 0 and p < 1 << 61 and is_prime(p)
        assert eng.den % p
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
    assert eng.den == 1
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


@pytest.mark.parametrize("spec", catalog_specs(48) + ["2I"])
def test_row_of_matches_the_exact_lookup(spec):
    t = parse_group_spec(spec)
    eng = t._engine()
    products = [[eng.mul(a, b) for a, b in zip(x, y)] for x in eng.vals for y in eng.vals]
    for dicts in eng.vals + eng.conj_vals + products:
        assert eng.row_of(dicts) == exact_row(eng, dicts)


def test_a_modulus_below_the_bound_is_rejected(monkeypatch):
    t = cyclic_table(4)
    eng = t._engine()
    # zeta_4 -> 2 mod 5 is a ring map Z[i] -> F_5, under which 1+2i and 0
    # collide: 2+2i has the image of 1, the trivial character.  The first
    # prime of every image is faked to be 5.
    real = chartab._crt_prime
    monkeypatch.setattr(chartab, "_crt_prime",
                        lambda i, n: 5 if i == 0 else real(i - 1, n))
    eng._build_image(4, 1)
    assert eng.modulus == 5 and eng.g == 2
    assert eng.image({0: 1, 1: 2}) == eng.image({}) == 0
    left = [{0: 2, 1: 2}] * 4
    assert eng.image(left[0]) == eng.image({0: 1})
    fake = [eng.image_rows.get(tuple(eng.image(left[0]) * x % 5 for x in row))
            for row in eng.row_images]
    assert fake == [0, 1, 2, 3]
    # B = (|2+2i|_1 + 1) * 1 = 5 and 5^phi(4) = 25 >= 5: M must grow first
    assert eng.product_rows(left) == [None] * 4
    assert _primes_of(eng)[0] == 5
    _check_modulus(eng, 5)
    with pytest.raises(ValueError, match="product with row 1 does not"):
        exact_products(t, left)


def _table_with_denominator(p):
    """C:3 with its last row replaced by (1, 1/p, 1/p): no character table,
    and a coefficient that is not an integer."""
    t = cyclic_table(3)
    rows = [t.characters[0], t.characters[1], (1, Fraction(1, p), Fraction(1, p))]
    return chartab.CharacterTable("C3-half" if p == 2 else f"C3-{p}", 3, t.classes, rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as ex:
        return type(ex), str(ex)


def _denominators(dicts):
    return math.lcm(*(Fraction(c).denominator for d in dicts for c in d.values()))


@pytest.mark.parametrize("p", [2, chartab._crt_prime(0, 3)], ids=["half", "crt-prime"])
def test_a_table_with_fractions_is_recognised_on_the_image(p):
    t = _table_with_denominator(p)
    eng = t._engine()
    assert eng.den == p and eng.norm == 1
    for k in range(3):
        left = eng.vals[k]
        assert eng.product_rows(left) == [
            exact_row(eng, [eng.mul(a, b) for a, b in zip(left, row)]) for row in eng.vals]
        # B = D' * D * (L + 1) * max(N, 1), and no prime of M divides D
        _check_modulus(eng, _denominators(left) * p * (max(_l1(d) for d in left) + 1))
        assert p not in _primes_of(eng)
        rho = [int(i == k) for i in range(3)]
        assert _outcome(mckay_matrix, t, rho) == _outcome(exact_products, t, left)
    for dicts in eng.vals + eng.conj_vals:
        assert eng.row_of(dicts) == exact_row(eng, dicts)
    assert _outcome(mckay_matrix, t, [0, 1, 0]) == (
        ValueError, "product with row 2 does not decompose integrally; "
                    "the table is not a character table")
    assert _outcome(dual_group_action, t) == (
        InternalInconsistency, f"row 2 * row 2 is not a row of {t.name}")
    m = McKayQuiver(t, [1, 0, 0])
    assert [character_walk_matrix(m, L) for L in range(4)] == [m.matrix] * 4


def test_a_denominator_that_divides_M_rebuilds_it():
    t = cyclic_table(3)
    eng = t._engine()
    # an l1 norm of 2^62 makes M a product of three primes, more than the
    # bound of f below needs
    assert t.row_index([2 ** 62] * 3) is None
    p = _primes_of(eng)[0]
    f = t.irreducible(1) * Fraction(1, p)
    assert len(_primes_of(eng)) == 3 and eng.modulus > (p + 1) ** eng.phi
    assert_routes_agree(f)
    with pytest.raises(NotACharacter, match=f"multiplicity of row 2 is 1/{p}"):
        decompose(f)
    assert p not in _primes_of(eng)
    assert t.dual_index(1) == 2


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
    # the reference decomposes the outer character by inner products
    t1, t2 = (parse_group_spec(part) for part in spec.split("x"))
    v1, v2 = (character_of(t, natural_rep(t)) for t in (t1, t2))
    t = parse_group_spec(spec)
    outer = ClassFunction(t, [a * b for a in v1 for b in v2])
    assert natural_rep(t) == decompose_by_inner_products(outer)[0]


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
