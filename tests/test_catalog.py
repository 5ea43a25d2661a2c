"""Built-in group tables: frozen entries, grammar, naturals, verification."""

import json
from fractions import Fraction

import pytest

from mckayq.catalog import (
    GroupSpecError,
    binary_icosahedral_table,
    binary_octahedral_table,
    binary_tetrahedral_table,
    catalog_specs,
    cyclic_table,
    dicyclic_table,
    direct_product,
    natural_rep,
    parse_group_spec,
    regular_rep,
)
from mckayq.chartab import fs_indicator, is_symplectic, verify_table
from mckayq.cyclotomic import Cyclotomic, E


def test_catalog_specs_contents():
    specs = catalog_specs(48)
    assert "C:1" in specs and "C:48" in specs
    assert "BD:8" in specs and "BD:48" in specs
    assert "2T" in specs and "2O" in specs
    assert "2I" not in specs          # order 120
    assert "BD:4" not in specs        # dicyclic needs order >= 8
    assert "2O" not in catalog_specs(40)


def test_every_table_verifies():
    for spec in catalog_specs(48) + ["2I"]:
        t = parse_group_spec(spec)
        rep = verify_table(t)
        assert rep.all_pass, f"{spec}\n{rep}"
        nat = natural_rep(t)
        assert len(nat) == t.n_classes and any(nat)
        reg = regular_rep(t)
        assert sum(d * d for d in reg) == t.order


def test_bd12_frozen_table():
    t = dicyclic_table(12)
    assert t.order == 12 and t.n_classes == 6
    assert t.class_sizes == (1, 1, 3, 3, 2, 2)
    assert t.dims == (1, 1, 1, 1, 2, 2)
    i4 = E(4)
    one = Cyclotomic.one()
    expect = [
        [1, 1, 1, 1, 1, 1],
        [1, 1, -1, -1, 1, 1],
        [one, -one, i4, -i4, -one, one],
        [one, -one, -i4, i4, -one, one],
        [2, 2, 0, 0, -1, -1],
        [2, -2, 0, 0, 1, -1],
    ]
    for i, row in enumerate(expect):
        for c, v in enumerate(row):
            want = v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)
            assert t.characters[i][c] == want, (i, c)
    assert natural_rep(t) == (0, 0, 0, 0, 0, 1)


def test_bd24_frozen_rows():
    t = dicyclic_table(24)
    assert t.order == 24 and t.n_classes == 9
    assert t.class_sizes == (1, 1, 6, 6, 2, 2, 2, 2, 2)
    assert t.dims == (1, 1, 1, 1, 2, 2, 2, 2, 2)
    assert natural_rep(t) == (0, 0, 0, 0, 1, 0, 0, 0, 0)
    z = E(12)
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    nat_row = [2, -2, 0, 0, z + z ** 11, one, zero, -one, -(z + z ** 11)]
    for c, v in enumerate(nat_row):
        want = v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v)
        assert t.characters[4][c] == want, c
    # the 2-dim row trivial on the center, with class values 2,2,0,0,1,-1,-2,-1,1
    for c, v in enumerate([2, 2, 0, 0, 1, -1, -2, -1, 1]):
        assert t.characters[6][c] == Cyclotomic.from_rational(v)


def test_binary_naturals_are_symplectic():
    tables = [
        binary_tetrahedral_table(),
        binary_octahedral_table(),
        binary_icosahedral_table(),
        dicyclic_table(8),
        dicyclic_table(12),
        dicyclic_table(24),
    ]
    for t in tables:
        nat = natural_rep(t)
        k = nat.index(1)
        assert t.dims[k] == 2, t.name
        assert fs_indicator(t.irreducible(k)) == Fraction(-1), t.name
        assert is_symplectic(nat, t), t.name


def test_cyclic_natural_and_duality():
    # cyclic groups embed in SU(2) as z -> diag(z, z*), so natural = chi1 + dual
    c4 = cyclic_table(4)
    assert natural_rep(c4) == (0, 1, 0, 1)
    assert c4.dual_index(1) == 3 and c4.dual_index(2) == 2
    assert natural_rep(cyclic_table(2)) == (0, 2)
    assert natural_rep(cyclic_table(1)) == (2,)
    assert regular_rep(cyclic_table(1)) == (1,)


def test_direct_products():
    v4 = parse_group_spec("C:2xC:2")
    assert v4.order == 4 and v4.n_classes == 4
    assert v4.dims == (1, 1, 1, 1)
    assert verify_table(v4).all_pass
    # C2's natural is twice its sign row, so the product natural is 4 copies
    assert natural_rep(v4) == (0, 0, 0, 4)

    big = direct_product(cyclic_table(2), dicyclic_table(8))
    assert big.order == 16 and big.n_classes == 10
    assert verify_table(big).all_pass
    assert parse_group_spec("C:2xBD:8").order == 16


def test_direct_product_multiplies_each_distinct_pair_once(monkeypatch):
    c5, c7 = cyclic_table(5), cyclic_table(7)
    calls = []
    real_mul = Cyclotomic.__mul__
    monkeypatch.setattr(Cyclotomic, "__mul__",
                        lambda a, b: calls.append(1) or real_mul(a, b))
    t = direct_product(c5, c7)
    monkeypatch.undo()
    # 35 distinct pairs of values in the rows, 35 in the natural character
    assert len(calls) <= 70
    assert t.characters == tuple(
        tuple(v1 * v2 for v1 in row1 for v2 in row2)
        for row1 in c5.characters for row2 in c7.characters)


def test_q8_alias():
    q8 = parse_group_spec("Q8")
    assert q8.order == 8 and q8.n_classes == 5
    assert q8.dims == (1, 1, 1, 1, 2)


@pytest.mark.parametrize(
    "bad", ["C:0", "BD:10", "BD:4", "D:8", "C:x", "", "C:2x", "x", "BD:", "2J"]
)
def test_grammar_errors(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_exceptional_orders():
    assert binary_tetrahedral_table().order == 24
    assert binary_octahedral_table().order == 48
    assert binary_icosahedral_table().order == 120
    assert binary_tetrahedral_table().n_classes == 7
    assert binary_octahedral_table().n_classes == 8
    assert binary_icosahedral_table().n_classes == 9
