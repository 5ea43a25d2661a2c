"""Character table operations against brute-force cyclotomic sums."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq.catalog import (
    binary_tetrahedral_table,
    cyclic_table,
    dicyclic_table,
    parse_group_spec,
)
from mckayq.chartab import (
    CharacterTable,
    ClassFunction,
    ConjClass,
    InvalidKernel,
    NotACharacter,
    TableFormatError,
    TableMismatch,
    TableValidationError,
    decompose,
    dual,
    fs_indicator,
    inner_product,
    is_symplectic,
    kernel_classes,
    proportional_on_classes,
    quotient_table,
    render_table_text,
    table_from_json,
    table_to_json,
    verify_table,
)
from mckayq.cyclotomic import Cyclotomic, E


def raw_inner(t: CharacterTable, f, g) -> Cyclotomic:
    """Plain sum (1/|G|) sum_c size_c f(c) conj(g(c)), no engine."""
    total = Cyclotomic.zero()
    for c in range(t.n_classes):
        total = total + t.classes[c].size * f[c] * g[c].conjugate()
    return total * Fraction(1, t.order)


def raw_indicator(t: CharacterTable, f) -> Cyclotomic:
    total = Cyclotomic.zero()
    for c in range(t.n_classes):
        total = total + t.classes[c].size * f[t.classes[c].power2]
    return total * Fraction(1, t.order)


# -- oracle agreement -----------------------------------------------------------


@pytest.mark.parametrize("spec", ["C:5", "BD:12", "2T", "C:2xC:2"])
def test_inner_product_matches_raw_sum(spec):
    t = parse_group_spec(spec)
    for i in range(t.n_classes):
        for j in range(t.n_classes):
            f, g = t.irreducible(i), t.irreducible(j)
            got = inner_product(f, g)
            assert got == raw_inner(t, f, g)
            assert got == (1 if i == j else 0)


@pytest.mark.parametrize("spec", ["C:6", "BD:12", "BD:24", "2T"])
def test_fs_indicator_matches_raw_sum(spec):
    t = parse_group_spec(spec)
    for i in range(t.n_classes):
        f = t.irreducible(i)
        raw = raw_indicator(t, f)
        assert Cyclotomic.from_rational(fs_indicator(f)) == raw


def test_fs_indicator_frozen_bd12():
    t = dicyclic_table(12)
    assert [fs_indicator(t.irreducible(i)) for i in range(6)] == [1, 1, 0, 0, 1, -1]


# -- class function arithmetic ----------------------------------------------------


def test_class_function_ops():
    t = dicyclic_table(12)
    a, b = t.irreducible(4), t.irreducible(5)
    assert (a + b).values == tuple(x + y for x, y in zip(a.values, b.values))
    assert (a * b).values == tuple(x * y for x, y in zip(a.values, b.values))
    assert (3 * a).values == tuple(3 * x for x in a.values)
    assert a.conjugate() == a
    assert a[0] == 2 and list(a)[1] == 2


def test_cross_table_mismatch():
    t1, t2 = cyclic_table(3), cyclic_table(3)
    with pytest.raises(TableMismatch):
        inner_product(t1.trivial(), t2.trivial())
    with pytest.raises(TableMismatch):
        t1.trivial() + t2.trivial()


def test_row_index_of_values_outside_the_table_field():
    t = cyclic_table(6)
    assert t._engine().exponent == 3
    # E(5)^k cannot be written over Q(zeta_3), so no row has these values
    assert t.row_index([1, E(5), E(5) ** 2, E(5) ** 3, 1, 1]) is None
    assert [t.row_index(row) for row in t.characters] == list(range(6))


def test_decompose_round_trip_fixed():
    t = dicyclic_table(12)
    chi5 = t.irreducible(4)
    assert decompose(chi5 * chi5) == (1, 1, 0, 0, 1, 0)
    assert decompose(t.trivial()) == (1, 0, 0, 0, 0, 0)
    with pytest.raises(NotACharacter):
        decompose(ClassFunction(t, [1, 0, 0, 0, 0, 0]))
    with pytest.raises(NotACharacter):
        decompose(t.irreducible(1) * Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any))
def test_decompose_round_trip_random(mult):
    t = dicyclic_table(12)
    f = ClassFunction(t, [Cyclotomic.zero()] * 6)
    for k, m in enumerate(mult):
        if m:
            f = f + m * t.irreducible(k)
    assert decompose(f) == tuple(mult)


def test_dual_and_index():
    t = dicyclic_table(12)
    assert dual(t.irreducible(2)) == t.irreducible(3)
    assert t.dual_index(2) == 3 and t.dual_index(3) == 2
    c5 = cyclic_table(5)
    for i in range(5):
        assert c5.dual_index(i) == (-i) % 5
        assert c5.dual_index(c5.dual_index(i)) == i


def test_is_symplectic():
    t = dicyclic_table(12)
    assert is_symplectic((0, 0, 0, 0, 0, 1), t)      # quaternionic row
    assert not is_symplectic((1, 0, 0, 0, 0, 0), t)  # odd orthogonal
    assert is_symplectic((2, 0, 0, 0, 0, 0), t)
    assert not is_symplectic((0, 0, 1, 0, 0, 0), t)  # complex, dual missing
    assert is_symplectic((0, 0, 1, 1, 0, 0), t)
    assert is_symplectic((0, 0, 2, 2, 2, 1), t)
    with pytest.raises(ValueError):
        is_symplectic((1, 0), t)


def test_kernel_classes():
    t = dicyclic_table(12)
    assert kernel_classes(t.irreducible(4)) == frozenset({0, 1})
    assert kernel_classes(t.irreducible(5)) == frozenset({0})
    assert kernel_classes(t.trivial()) == frozenset(range(6))
    assert kernel_classes(t.irreducible(1)) == frozenset({0, 1, 4, 5})


def test_proportionality():
    t = dicyclic_table(12)
    a, b = t.irreducible(2), t.irreducible(3)
    assert proportional_on_classes(a, b, [0, 1])
    assert not proportional_on_classes(a, b, [0, 2])
    assert proportional_on_classes(a, a, range(6))
    assert proportional_on_classes(t.irreducible(4), 2 * t.trivial(), [0, 1])


# -- verification ----------------------------------------------------------------


def test_verify_good_tables():
    for spec in ("C:1", "C:7", "BD:8", "BD:12", "2T", "C:3xC:3"):
        rep = verify_table(parse_group_spec(spec))
        assert rep.all_pass, f"{spec}\n{rep}"
        assert len(rep.checks) == 7


def test_verify_catches_wrong_sizes():
    t = dicyclic_table(12)
    data = table_to_json(t)
    for cls, size in zip(data["classes"], (1, 1, 2, 2, 3, 3)):
        cls["size"] = size
    with pytest.raises(TableValidationError) as exc:
        table_from_json(data)
    failed = {c.name for c in exc.value.report.checks if not c.passed}
    assert "row-orthogonality" in failed
    forced = table_from_json(data, force=True)
    assert forced.class_sizes == (1, 1, 2, 2, 3, 3)


def test_verify_catches_scaled_row():
    t = cyclic_table(3)
    data = table_to_json(t)
    data["characters"][2] = ["2", "2*E(3)^2", "2*E(3)"]
    with pytest.raises(TableValidationError) as exc:
        table_from_json(data)
    failed = {c.name for c in exc.value.report.checks if not c.passed}
    assert "row-orthogonality" in failed or "dimension-squares" in failed


def test_verify_catches_bad_power_map():
    t = dicyclic_table(12)
    data = table_to_json(t)
    data["classes"][4]["power2"] = 0   # y^2 is not the identity
    rep = verify_table(table_from_json(data, force=True))
    assert not rep.all_pass
    failed = {c.name for c in rep.checks if not c.passed}
    assert "power2-indicators" in failed


def test_verify_catches_duplicate_row():
    t = cyclic_table(2)
    bad = CharacterTable("dup", 2, t.classes, [t.characters[0], t.characters[0]])
    rep = verify_table(bad)
    assert not rep.all_pass


# -- quotients --------------------------------------------------------------------


def test_quotient_by_center():
    t = dicyclic_table(12)
    qt = quotient_table(t, {0, 1})
    assert qt.order == 6
    assert qt.class_sizes == (1, 3, 2)
    assert qt.dims == (1, 1, 2)
    assert qt.surviving_rows == (0, 1, 4)
    assert qt.block_representatives == (0, 2, 4)
    assert verify_table(qt).all_pass


def test_quotient_to_c2():
    t = dicyclic_table(12)
    qt = quotient_table(t, kernel_classes(t.irreducible(1)))
    assert qt.order == 2 and qt.n_classes == 2
    assert qt.dims == (1, 1)


def test_quotient_rejects_non_kernels():
    t = dicyclic_table(12)
    with pytest.raises(InvalidKernel):
        quotient_table(t, {0, 2})      # not a union of kernel classes
    with pytest.raises(InvalidKernel):
        quotient_table(t, {1})         # missing the identity
    with pytest.raises(InvalidKernel):
        quotient_table(t, {0, 4})      # size 3 does not divide 12


# -- serialization -----------------------------------------------------------------


def test_json_round_trip():
    t = binary_tetrahedral_table()
    data = table_to_json(t)
    again = table_from_json(json.dumps(data))
    assert again.name == t.name and again.order == t.order
    assert again.class_sizes == t.class_sizes
    assert again.characters == t.characters
    assert table_to_json(again) == data


def test_table_format_errors():
    with pytest.raises(TableFormatError):
        table_from_json("not json at all {")
    with pytest.raises(TableFormatError):
        table_from_json([1, 2, 3])
    with pytest.raises(TableFormatError):
        table_from_json({"name": "x", "order": 1})
    with pytest.raises(TableFormatError):
        table_from_json({"name": "x", "order": 1,
                         "classes": [{"name": "1", "size": 1,
                                      "power2": 0, "inverse": 0}],
                         "characters": [["E(4"]]})


@pytest.mark.parametrize("path, value", [
    (("classes", 1, "power2"), 0.0), (("classes", 1, "inverse"), 1.0),
    (("classes", 0, "size"), True), (("order",), True), (("order",), 2.0),
    (("characters", 1, 1), -1.0), (("characters", 1, 0), True)])
def test_table_json_takes_json_integers(path, value):
    data = table_to_json(cyclic_table(2))
    *inner, last = path
    target = data
    for key in inner:
        target = target[key]
    target[last] = value
    with pytest.raises(TableFormatError, match="malformed table JSON"):
        table_from_json(json.dumps(data), force=True)


def test_render_text():
    text = render_table_text(dicyclic_table(12))
    assert "BD12" in text and "chi6" in text
    assert "E(4)" in text and "-2" in text


def test_constructor_validation():
    cls = (ConjClass("1", 1, 0, 0),)
    with pytest.raises(ValueError):
        CharacterTable("bad", 0, cls, [[1]])
    with pytest.raises(ValueError):
        CharacterTable("bad", 1, cls, [[1, 1]])
    with pytest.raises(ValueError):
        CharacterTable("bad", 1, cls, [[1], [1]])
    with pytest.raises(ValueError):
        CharacterTable("bad", 1, (ConjClass("1", 1, 0, 5),), [[1]])
    with pytest.raises(TypeError):
        CharacterTable("bad", 1, cls, [[1.5]])
