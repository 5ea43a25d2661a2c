"""Quiver structure: connectivity, weightings, char polys, isomorphism, ADE."""

import itertools
import time
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mckayq import quiver
from mckayq.catalog import catalog_specs, natural_rep, parse_group_spec, regular_rep
from mckayq.linalg import nullspace_mod, rational_reconstruction
from mckayq.mckay import McKayQuiver, mckay_matrix
from mckayq.polynomials import IntPolynomial, factor_over_Q, is_prime, parse_polynomial
from mckayq.quiver import (
    Quiver,
    QuiverFormatError,
    ade_classify,
    automorphism_orbits,
    char_poly,
    find_isomorphism,
    is_strongly_connected,
    k_weight_vector,
    quiver_isomorphic,
    reduced_weight_vector,
    strongly_connected_components,
    to_dot,
    weakly_connected_components,
)
from mckayq.quiver import (
    WeightVector,
    _char_poly,
    _normalize_positive,
    _strictly_positive_combination,
)


def mk(adj, weights=None):
    return Quiver([f"v{i}" for i in range(len(adj))], adj, weights)


def brute_scc(adj):
    """Components via transitive closure, the slow obvious way."""
    n = len(adj)
    reach = [[bool(adj[i][j]) or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comp = {}
    for i in range(n):
        key = frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        comp.setdefault(key, []).append(i)
    return tuple(sorted(tuple(sorted(v)) for v in comp.values()))


def brute_det(mat):
    """Cofactor expansion over Fraction, for the char poly oracle."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * brute_det(minor)
    return total


adjacency_strategy = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        min_size=n, max_size=n))


# -- connectivity ---------------------------------------------------------------


# up to 12 vertices, mostly without arrows, with loops and double arrows
sparse_adjacency_strategy = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 0, 1, 2]), min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.one_of(adjacency_strategy, sparse_adjacency_strategy))
def test_scc_matches_transitive_closure(adj):
    assert strongly_connected_components(mk(adj)) == brute_scc(adj)


def test_scc_of_catalog_mckay_quivers_matches_transitive_closure():
    for spec in catalog_specs(48):
        t = parse_group_spec(spec)
        for k in range(t.n_classes):
            A = mckay_matrix(t, [int(i == k) for i in range(t.n_classes)])
            assert strongly_connected_components(mk(A)) == brute_scc(A), (spec, k)


@settings(max_examples=200, deadline=None)
@given(st.one_of(adjacency_strategy, sparse_adjacency_strategy))
def test_components_come_out_canonical(adj):
    """Both component functions give sorted blocks ordered by first
    vertex, so callers compare them as produced."""
    for blocks in (strongly_connected_components(mk(adj)),
                   weakly_connected_components(mk(adj))):
        assert all(list(b) == sorted(b) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
        assert sorted(v for b in blocks for v in b) == list(range(len(adj)))


def test_scc_frozen():
    two_cycles = mk([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert strongly_connected_components(two_cycles) == ((0, 1), (2, 3))
    assert weakly_connected_components(two_cycles) == ((0, 1), (2, 3))
    assert not is_strongly_connected(two_cycles)

    path = mk([[0, 1], [0, 0]])
    assert strongly_connected_components(path) == ((0,), (1,))
    assert weakly_connected_components(path) == ((0, 1),)
    assert not is_strongly_connected(path)

    cycle = mk([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert is_strongly_connected(cycle)
    assert strongly_connected_components(cycle) == ((0, 1, 2),)


# -- characteristic polynomial -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(adjacency_strategy)
def test_char_poly_matches_cofactor_determinant(adj):
    n = len(adj)
    p = char_poly(mk(adj))
    assert p.degree == n
    # evaluate det(xI - A) at n+1 integer points and compare
    for x in range(-2, n - 1 + 2):
        mat = [[Fraction((x if i == j else 0) - adj[i][j]) for j in range(n)]
               for i in range(n)]
        assert p.evaluate(x) == brute_det(mat), (adj, x)


def test_char_poly_frozen():
    assert str(char_poly(mk([[0, 2], [3, 1]]))) == "x^2-x-6"
    block = mk([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert str(char_poly(block)) == "x^3-2*x^2-x+2"
    assert char_poly(mk([[0]])) == IntPolynomial([0, 1])


signed_matrix_strategy = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2, 2)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(signed_matrix_strategy)
def test_char_poly_of_signed_large_entries_matches_sympy(A):
    n = len(A)
    want = [1]
    if n:
        x = sympy.Symbol("x")
        want = [int(c) for c in reversed(sympy.Matrix(A).charpoly(x).all_coeffs())]
    assert _char_poly(A) == want


def test_char_poly_needs_several_primes():
    A = [[10 ** 6, 1, 2, 3], [4, -10 ** 6, 5, 6],
         [7, 8, 10 ** 6, 9], [1, 2, 3, -10 ** 6]]
    det = brute_det([[Fraction(v) for v in row] for row in A])
    # one word-sized prime cannot hold the constant term
    assert 2 * abs(det) > quiver._crt_prime(0)
    coeffs = _char_poly(A)
    assert coeffs[0] == det
    for x in range(-2, 3):
        mat = [[Fraction((x if i == j else 0) - A[i][j]) for j in range(4)]
               for i in range(4)]
        assert IntPolynomial(coeffs).evaluate(x) == brute_det(mat)


def test_char_poly_small_and_cyclic():
    assert _char_poly([]) == [1]
    assert _char_poly([[-7]]) == [7, 1]
    assert char_poly(mk([[5]])) == parse_polynomial("x-5")
    cycle = [[int(j == (i + 1) % 48) for j in range(48)] for i in range(48)]
    assert char_poly(mk(cycle)) == parse_polynomial("x^48-1")
    perm = [(7 * i) % 48 for i in range(48)]
    shuffled = [[cycle[perm[i]][perm[j]] for j in range(48)] for i in range(48)]
    assert char_poly(mk(shuffled)) == parse_polynomial("x^48-1")


# -- eigen-weightings ----------------------------------------------------------------


def scan_weight_vector(q):
    """The first k between the extreme row sums with a positive
    eigenvector, trying every integer k."""
    sums = [sum(row) for row in q.adjacency]
    for k in range(max(1, min(sums)), max(sums) + 1):
        wv = k_weight_vector(q, k)
        if wv is not None:
            return wv
    return None


@settings(max_examples=80, deadline=None)
@given(adjacency_strategy)
def test_reduced_weighting_matches_the_row_sum_scan(adj):
    q = mk(adj)
    want = scan_weight_vector(q)
    assert reduced_weight_vector(q) == want
    assert reduced_weight_vector(q, factor_over_Q(char_poly(q))) == want


def test_reduced_weighting_with_huge_row_sums():
    t0 = time.process_time()
    assert reduced_weight_vector(mk([[1, 1], [1, 10 ** 9]])) is None
    # char poly (x - 10^6)(x + 1); the row sums are 500000 and 1000001
    wv = reduced_weight_vector(mk([[0, 500000], [2, 999999]]))
    assert wv == WeightVector(10 ** 6, (1, 2))
    assert time.process_time() - t0 < 1.0


def test_k_weight_vector_frozen():
    q = mk([[0, 2], [3, 1]])
    wv = k_weight_vector(q, 3)
    assert wv is not None and wv.weights == (2, 3)
    assert k_weight_vector(q, 2) is None

    star = mk([
        [0, 1, 1, 1, 1],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    wv = k_weight_vector(star, 2)
    assert wv is not None and wv.weights == (2, 1, 1, 1, 1)

    block = mk([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    wv = reduced_weight_vector(block)
    assert wv is not None and wv.k == 2 and wv.weights == (1, 1, 1)

    # two-dimensional eigenspaces: the weighting comes from Fourier-Motzkin
    for adj, k, weights in (
            ([[0, 2, 0], [3, 1, 0], [0, 0, 3]], 3, (2, 3, 3)),
            ([[0, 2, 0, 0], [3, 1, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]], 3,
             (2, 3, 3, 3)),
            ([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 2, 0],
              [0, 0, 1, 0, 1], [0, 0, 0, 2, 0]], 2, (1, 1, 1, 1, 1))):
        wv = k_weight_vector(mk(adj), k)
        assert wv is not None and wv.weights == weights
        assert not any(isinstance(x, float) for x in wv.weights)
    # integer basis entries still give an exact combination
    w = _strictly_positive_combination([[1, 0, 2], [0, 1, -1]])
    assert w is not None and all(type(x) is Fraction and x > 0 for x in w)


@settings(max_examples=60, deadline=None)
@given(adjacency_strategy, st.integers(1, 6))
def test_k_weight_vector_properties(adj, k):
    q = mk(adj)
    wv = k_weight_vector(q, k)
    if wv is None:
        return
    w = wv.weights
    n = q.n
    assert all(x > 0 for x in w)
    g = 0
    for x in w:
        g = gcd(g, x)
    assert g == 1
    for i in range(n):
        assert sum(adj[i][j] * w[j] for j in range(n)) == k * w[i]
    assert char_poly(q).evaluate(k) == 0


def gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_reduced_weighting_needs_positivity():
    # eigenvalue 1 exists for the path but with no positive eigenvector
    assert k_weight_vector(mk([[1, 1], [0, 1]]), 1) is None
    assert reduced_weight_vector(mk([[0, 1], [0, 0]])) is None


# -- the modular route of k_weight_vector -----------------------------------------------


def minus_k(adj, k):
    n = len(adj)
    return [[adj[i][j] - (k if i == j else 0) for j in range(n)] for i in range(n)]


def sympy_basis(M):
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(M).nullspace()]


def exact_route(q, k):
    """The reference: sympy's nullspace basis over Q, which has 1 in each
    free column, and the same Fourier-Motzkin search."""
    basis = sympy_basis(minus_k(q.adjacency, k))
    if not basis:
        return None
    w = basis[0] if len(basis) == 1 else _strictly_positive_combination(basis)
    if w is None or any(x <= 0 for x in w):
        return None
    return WeightVector(k, _normalize_positive([x.as_integer_ratio() for x in w]))


def assert_sympy_basis(M):
    # the lifted basis is sympy's reduced echelon basis, each vector
    # scaled by its entry in its free column, the last nonzero one
    basis = quiver._eigenspace(M)
    assert all(type(x) is int for v in basis for x in v)
    assert [[Fraction(x, next(d for d in reversed(v) if d)) for x in v]
            for v in basis] == sympy_basis(M)


@pytest.fixture
def primes_used(monkeypatch):
    """The prime of each modular elimination that k_weight_vector runs."""
    calls = []

    def spy(rows, p):
        calls.append(p)
        return nullspace_mod(rows, p)
    monkeypatch.setattr(quiver, "nullspace_mod", spy)
    return calls


def test_weight_prime_is_the_largest_prime_below_2_30():
    p = quiver._WEIGHT_PRIME
    assert p < 2 ** 30 and is_prime(p)
    assert not any(is_prime(x) for x in range(p + 1, 2 ** 30))


@st.composite
def repeated_blocks(draw):
    """Two or three copies of one block, with the vertices permuted, so
    that every eigenspace of the block is at least twice as large.  With
    its row sums evened out on the diagonal, the block has the eigenvalue
    R, the common row sum, and a positive eigenvector."""
    b = draw(st.integers(1, 4))
    block = draw(st.lists(st.lists(st.integers(0, 3), min_size=b, max_size=b),
                          min_size=b, max_size=b))
    if draw(st.booleans()):
        top = max(sum(row) for row in block)
        for i, row in enumerate(block):
            row[i] += top - sum(row)
    c = draw(st.integers(2, 3))
    n = b * c
    perm = draw(st.permutations(range(n)))
    big = [[block[i % b][j % b] if i // b == j // b else 0 for j in range(n)]
           for i in range(n)]
    return [[big[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                           min_size=n, max_size=n)),
    repeated_blocks()))
def test_modular_route_matches_the_exact_route(adj):
    q = mk(adj)
    sums = [sum(row) for row in adj]
    for k in range(max(1, min(sums)), max(sums) + 1):
        assert k_weight_vector(q, k) == exact_route(q, k), k
        assert_sympy_basis(minus_k(adj, k))


def test_nullity_0_mod_p_is_final(primes_used):
    # full rank mod p implies full rank over Q: no further prime needed
    assert k_weight_vector(mk([[0, 2], [3, 1]]), 2) is None
    assert k_weight_vector(mk([[0, 2], [3, 1]]), 3) == WeightVector(3, (2, 3))
    assert primes_used == [quiver._WEIGHT_PRIME] * 2


def test_rank_drop_mod_p_falls_back(monkeypatch, primes_used):
    # A - 7I has rank 2 over Q but rank 1 mod 5: the next prime's lower
    # nullity wins
    q = mk([[1, 4, 4], [3, 0, 3], [3, 3, 0]])
    monkeypatch.setattr(quiver, "_WEIGHT_PRIME", 5)
    M = [[-6, 4, 4], [3, -7, 3], [3, 3, -7]]
    assert len(nullspace_mod(M, 5)) == 2 and len(sympy_basis(M)) == 1
    assert k_weight_vector(q, 7) == WeightVector(7, (4, 3, 3))
    assert primes_used == [5, quiver._crt_prime(0)]


def test_weight_above_the_reconstruction_bound_falls_back(monkeypatch, primes_used):
    # w = (1, 10) at k = 10; 1/10 mod 101 has no fraction with |a|, b <= 7
    q = mk([[0, 1], [100, 0]])
    big = quiver._WEIGHT_PRIME
    monkeypatch.setattr(quiver, "_WEIGHT_PRIME", 101)
    assert rational_reconstruction(pow(10, -1, 101), 101) is None
    assert k_weight_vector(q, 10) == WeightVector(10, (1, 10))
    assert primes_used == [101, quiver._crt_prime(0)]
    # within the bound of the default prime, one prime answers
    monkeypatch.setattr(quiver, "_WEIGHT_PRIME", big)
    assert k_weight_vector(q, 10) == WeightVector(10, (1, 10))
    assert primes_used == [101, quiver._crt_prime(0), big]


def test_a_lift_that_fails_the_exact_check_is_never_returned(monkeypatch, primes_used):
    monkeypatch.setattr(quiver, "_WEIGHT_PRIME", 101)
    # w = (1, 34) at k = 34, but 1/34 = 3 mod 101 lifts to (3, 1)
    q = mk([[0, 1], [34 * 34, 0]])
    M = [[-34, 1], [34 * 34, -34]]
    lift = [rational_reconstruction(x, 101) for x in nullspace_mod(M, 101)[0]]
    assert quiver._normalize_positive(lift) == (3, 1)
    assert k_weight_vector(q, 34) == WeightVector(34, (1, 34))
    # k = 1 is no eigenvalue of [[102]], but A - kI vanishes mod 101
    assert k_weight_vector(mk([[102]]), 1) is None
    assert primes_used == [101, quiver._crt_prime(0)] * 2


def test_free_columns_mod_p_that_differ_from_those_over_Q(primes_used):
    p = quiver._WEIGHT_PRIME
    # A - I = [[p, 1], [0, 0]]: column 0 vanishes mod p, so p puts the
    # free column at 0 where Q puts it at 1, at the same rank
    M = [[p, 1], [0, 0]]
    assert [max(j for j, x in enumerate(v) if x) for v in nullspace_mod(M, p)] == [0]
    assert quiver._eigenspace(M) == [(-1, p)]
    assert_sympy_basis(M)
    assert k_weight_vector(mk([[p + 1, 1], [0, 1]]), 1) is None
    # the same change on a positive weighting: A - pI = [[-p, 1], [p, -1]]
    assert k_weight_vector(mk([[0, 1], [p, p - 1]]), p) == WeightVector(p, (1, p))
    assert primes_used == [p, quiver._crt_prime(0)] * 4


def test_a_weighting_that_needs_crt_over_two_primes(primes_used):
    # the weight ratio 10^6 is above the 23,170 that one prime below 2^30
    # can reconstruct, and below the bound of two primes
    assert isqrt(quiver._WEIGHT_PRIME // 2) < 10 ** 6
    q = mk([[0, 1], [10 ** 12, 0]])
    assert k_weight_vector(q, 10 ** 6) == WeightVector(10 ** 6, (1, 10 ** 6))
    # a ratio of 10^10 is above the bound of any one prime below 2^61
    q = mk([[0, 1], [10 ** 20, 0]])
    assert k_weight_vector(q, 10 ** 10) == WeightVector(10 ** 10, (1, 10 ** 10))
    assert primes_used == [quiver._WEIGHT_PRIME, quiver._crt_prime(0)] * 2
    assert reduced_weight_vector(q) == WeightVector(10 ** 10, (1, 10 ** 10))


def test_faithful_catalog_weightings_use_one_prime(primes_used):
    faithful = 0
    for spec in catalog_specs(48):
        t = parse_group_spec(spec)
        for i in range(t.n_classes):
            mq = McKayQuiver(t, tuple(int(j == i) for j in range(t.n_classes)))
            if mq.is_faithful():
                faithful += 1
                rw = reduced_weight_vector(mq.to_quiver())
                assert rw == WeightVector(mq.dim, t.dims), (spec, i)
    assert faithful == 749
    assert primes_used == [quiver._WEIGHT_PRIME] * 749


# -- isomorphism and orbits -----------------------------------------------------------


def relabel(q, perm):
    n = q.n
    adj = [[q.adjacency[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    w = None if q.weights is None else [q.weights[perm[i]] for i in range(n)]
    return Quiver([f"u{i}" for i in range(n)], adj, w)


# weights in 1..3, cut to the vertex count, or none
weights_strategy = st.one_of(st.none(), st.lists(st.integers(1, 3), min_size=8, max_size=8))


def mk_weighted(adj, weights):
    return mk(adj, None if weights is None else weights[:len(adj)])


def is_isomorphism(q1, q2, f, respect_weights=True):
    n = q1.n
    return (sorted(f) == list(range(n))
            and all(q1.adjacency[i][j] == q2.adjacency[f[i]][f[j]]
                    for i in range(n) for j in range(n))
            and (not respect_weights or q1.weights is None
                 or all(q1.weights[i] == q2.weights[f[i]] for i in range(n))))


@settings(max_examples=40, deadline=None)
@given(adjacency_strategy, weights_strategy, st.randoms(use_true_random=False))
def test_isomorphism_under_relabeling(adj, weights, rng):
    q = mk_weighted(adj, weights)
    perm = list(range(q.n))
    rng.shuffle(perm)
    r = relabel(q, perm)
    f = find_isomorphism(q, r)
    assert f is not None
    assert is_isomorphism(q, r, f)


def test_isomorphism_frozen_cases():
    cyc = mk([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    rev = mk([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert quiver_isomorphic(cyc, rev)
    path = mk([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert not quiver_isomorphic(cyc, path)
    assert not quiver_isomorphic(cyc, mk([[0, 1], [1, 0]]))

    a = mk([[0, 1], [1, 0]], weights=[1, 2])
    b = mk([[0, 1], [1, 0]], weights=[2, 1])
    c = mk([[0, 1], [1, 0]], weights=[1, 1])
    assert find_isomorphism(a, b) == (1, 0)
    assert find_isomorphism(a, c) is None
    assert quiver_isomorphic(a, c, respect_weights=False)

    # the same distinct weights in other numbers: the arrows give the
    # map nothing to check, so only the cell sizes tell these apart
    empty = [[0] * 3 for _ in range(3)]
    assert find_isomorphism(mk(empty, [1, 1, 2]), mk(empty, [1, 2, 2])) is None
    q, r = mk(empty, [1, 1, 2]), mk(empty, [2, 1, 1])
    assert is_isomorphism(q, r, find_isomorphism(q, r))


def test_automorphism_orbits():
    star = mk([
        [0, 1, 1, 1, 1],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    assert automorphism_orbits(star) == ((0,), (1, 2, 3, 4))
    # self-loops on two of the three vertices split the orbit
    block = mk([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert automorphism_orbits(block) == ((0, 1), (2,))
    # weights refine orbits
    edge = mk([[0, 1], [1, 0]], weights=[1, 2])
    assert automorphism_orbits(edge) == ((0,), (1,))


@settings(max_examples=30, deadline=None)
@given(adjacency_strategy, weights_strategy, st.randoms(use_true_random=False))
def test_orbits_invariant_under_relabeling(adj, weights, rng):
    q = mk_weighted(adj, weights)
    perm = list(range(q.n))
    rng.shuffle(perm)
    r = relabel(q, perm)
    orig = automorphism_orbits(q)
    moved = automorphism_orbits(r)
    inv = {perm[i]: i for i in range(q.n)}
    mapped = tuple(sorted(tuple(sorted(inv[v] for v in orb)) for orb in orig))
    assert tuple(sorted(moved)) == mapped


# -- the backtracking search that the refinement search replaced, as an
# oracle: every pair of vertices with equal local invariants is tried

def oracle_invariants(q, use_weights=True):
    A = q.adjacency
    out = []
    for v in range(q.n):
        w = q.weights[v] if use_weights and q.weights is not None else 0
        outs = tuple(sorted(a for j, a in enumerate(A[v]) if j != v and a))
        ins = tuple(sorted(A[j][v] for j in range(q.n) if j != v and A[j][v]))
        out.append((w, A[v][v], outs, ins))
    return out


def oracle_extend(q1, q2, inv1, inv2, seed):
    """Backtracking completion of the partial map `seed` to an
    isomorphism q1 -> q2, as a list, or None."""
    n = q1.n
    A, B = q1.adjacency, q2.adjacency
    assigned = dict(seed)
    used = set(assigned.values())
    order = [v for v in range(n) if v not in assigned]

    def consistent(v, t):
        return (inv1[v] == inv2[t] and A[v][v] == B[t][t]
                and all(A[v][u] == B[t][s] and A[u][v] == B[s][t]
                        for u, s in assigned.items()))

    pos, choice = 0, []
    while True:
        if pos == len(order):
            return [assigned[v] for v in range(n)]
        v = order[pos]
        if pos == len(choice):
            choice.append([t for t in range(n) if t not in used and consistent(v, t)])
        if choice[pos]:
            t = choice[pos].pop(0)
            assigned[v] = t
            used.add(t)
            pos += 1
        else:
            choice.pop()
            if pos == 0:
                return None
            pos -= 1
            used.discard(assigned.pop(order[pos]))


def oracle_orbits(q):
    inv = oracle_invariants(q)
    part = quiver._Partition(q.n)
    for i in range(q.n):
        for j in range(i + 1, q.n):
            if part.find(i) == part.find(j) or inv[i] != inv[j]:
                continue
            full = oracle_extend(q, q, inv, inv, {i: j})
            if full is not None:
                for u, s in enumerate(full):
                    part.union(u, s)
    return part.blocks()


def oracle_isomorphic(q1, q2, respect_weights=True):
    if q1.n != q2.n:
        return False
    if respect_weights and (q1.weights is None) != (q2.weights is None):
        return False
    inv1 = oracle_invariants(q1, respect_weights)
    inv2 = oracle_invariants(q2, respect_weights)
    return (sorted(inv1) == sorted(inv2)
            and oracle_extend(q1, q2, inv1, inv2, {}) is not None)


ORBIT_SPECS = tuple(catalog_specs(48)) + ("2I", "C:2xBD:24", "BD:124", "C:64", "C:2x2I")


def test_orbits_match_backtracking_on_catalog_quivers():
    """The natural and regular quivers of 132 tables, weighted by the
    irreducible degrees as the battery weights them."""
    checked = 0
    for spec in ORBIT_SPECS:
        t = parse_group_spec(spec)
        for rep in (natural_rep(t), regular_rep(t)):
            q = McKayQuiver(t, rep).to_quiver()
            w = Quiver(q.vertices, q.adjacency, t.dims)
            assert automorphism_orbits(w) == oracle_orbits(w), (spec, rep)
            checked += 1
    assert checked == 132


@settings(max_examples=150, deadline=None)
@given(st.one_of(adjacency_strategy,
                 sparse_adjacency_strategy.filter(lambda a: len(a) <= 8)),
       weights_strategy, st.randoms(use_true_random=False))
def test_search_matches_backtracking(adj, weights, rng):
    q = mk_weighted(adj, weights)
    assert automorphism_orbits(q) == oracle_orbits(q)
    perm = list(range(q.n))
    rng.shuffle(perm)
    # a relabelled copy, one arrow changed, and fresh weights
    r = relabel(q, perm)
    i, j = rng.randrange(q.n), rng.randrange(q.n)
    bumped = [list(row) for row in r.adjacency]
    bumped[i][j] = (bumped[i][j] + 1) % 3
    reweighted = None if q.weights is None else [rng.randint(1, 3) for _ in range(q.n)]
    for other in (r, mk(bumped, r.weights), mk(r.adjacency, reweighted)):
        for respect in (True, False):
            f = find_isomorphism(q, other, respect)
            assert (f is not None) == oracle_isomorphic(q, other, respect)
            assert f is None or is_isomorphism(q, other, f, respect)


def cayley_z4xz4(steps):
    """The Cayley graph of Z4 x Z4 with the given symmetric steps."""
    vs = [(a, b) for a in range(4) for b in range(4)]
    return [[int(((c - a) % 4, (d - b) % 4) in steps) for c, d in vs] for a, b in vs]


SHRIKHANDE = cayley_z4xz4({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
ROOK_4X4 = cayley_z4xz4({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})


def test_refinement_equivalent_quivers_are_told_apart():
    """Colour refinement sees no difference inside these pairs: every
    vertex looks alike, also after one vertex is individualised in each
    strongly regular graph (both srg(16, 6, 2, 2)).  Only the checked
    map and the search below it decide."""
    triangles = sym([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
    hexagon = cycle_adj(6)
    assert find_isomorphism(mk(triangles), mk(hexagon)) is None
    assert automorphism_orbits(mk(triangles)) == (tuple(range(6)),)

    assert find_isomorphism(mk(SHRIKHANDE), mk(ROOK_4X4)) is None
    union = [row + [0] * 16 for row in SHRIKHANDE] + [[0] * 16 + row for row in ROOK_4X4]
    start = time.process_time()
    assert automorphism_orbits(mk(union)) == (tuple(range(16)), tuple(range(16, 32)))
    cpu = time.process_time() - start
    assert cpu < 5.0, cpu


def test_bd252_natural_orbits_are_fast():
    """66 vertices, where the backtracking took about 20 s: the
    weight-1 vertices (the linear characters) form one orbit."""
    t = parse_group_spec("BD:252")
    q = McKayQuiver(t, natural_rep(t)).to_quiver()
    w = Quiver(q.vertices, q.adjacency, t.dims)
    start = time.process_time()
    orbits = automorphism_orbits(w)
    cpu = time.process_time() - start
    assert q.n == 66
    ones = tuple(v for v in range(q.n) if t.dims[v] == 1)
    assert len(ones) == 4 and ones in orbits
    assert cpu < 5.0, cpu


# -- ADE recognition ----------------------------------------------------------------


def cycle_adj(n):
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        adj[i][(i + 1) % n] += 1
        adj[(i + 1) % n][i] += 1
    return adj


def test_ade_cycles():
    assert ade_classify(mk([[2]])) == "A~0"
    assert ade_classify(mk([[1]])) is None
    assert ade_classify(mk([[0, 2], [2, 0]])) == "A~1"
    for n in range(3, 9):
        assert ade_classify(mk(cycle_adj(n))) == f"A~{n - 1}"


def sym(pairs, n):
    adj = [[0] * n for _ in range(n)]
    for i, j in pairs:
        adj[i][j] += 1
        adj[j][i] += 1
    return adj


def test_ade_d_types():
    star = sym([(0, 1), (0, 2), (0, 3), (0, 4)], 5)
    assert ade_classify(mk(star)) == "D~4"
    # two forks joined by a path: D~5 on 6 vertices
    d5 = sym([(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)], 6)
    assert ade_classify(mk(d5)) == "D~5"
    d6 = sym([(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)], 7)
    assert ade_classify(mk(d6)) == "D~6"


def test_ade_e_types():
    e6 = sym([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)], 7)
    assert ade_classify(mk(e6)) == "E~6"
    e7 = sym([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)], 8)
    assert ade_classify(mk(e7)) == "E~7"
    e8 = sym([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 8)], 9)
    assert ade_classify(mk(e8)) == "E~8"


def test_ade_rejects():
    assert ade_classify(mk([[0, 1], [1, 1]])) is None        # self-loop
    assert ade_classify(mk([[0, 2], [2, 2]])) is None
    assert ade_classify(mk([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) is None  # directed
    path = sym([(0, 1), (1, 2)], 3)
    assert ade_classify(mk(path)) is None                     # finite type A, not affine
    disconnected = sym([(0, 1)], 4)
    assert ade_classify(mk(disconnected)) is None
    five_star = sym([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 6)
    assert ade_classify(mk(five_star)) is None


# -- serialization and display --------------------------------------------------------


def test_json_round_trip():
    q = mk([[0, 2], [1, 1]], weights=[1, 2])
    data = q.to_json()
    assert Quiver.from_json(data) == q
    assert Quiver.from_json('{"vertices": ["a"], "adjacency": [[0]]}').n == 1
    for bad in ("nope {", '["list"]', '{"vertices": ["a"]}',
                '{"vertices": ["a"], "adjacency": [[0, 1]]}',
                '{"vertices": ["a"], "adjacency": [[-1]]}',
                '{"vertices": ["a"], "adjacency": [[true]]}',
                '{"vertices": ["a"], "adjacency": [[1]], "weights": [true]}',
                '{"vertices": ["a", "a"], "adjacency": [[0, 0], [0, 0]]}',
                '{"vertices": [1, [2]], "adjacency": [[0, 0], [0, 0]]}'):
        with pytest.raises(QuiverFormatError):
            Quiver.from_json(bad)


def test_constructor_rejects():
    with pytest.raises(ValueError):
        Quiver([], [])
    with pytest.raises(ValueError):
        Quiver(["a"], [[0, 0]])
    with pytest.raises(ValueError):
        Quiver(["a"], [[0]], weights=[0])
    with pytest.raises(ValueError):
        Quiver(["a"], [[Fraction(1)]])
    q = mk([[0]])
    with pytest.raises(AttributeError):
        q.weights = (1,)


def test_induced():
    q = mk([[0, 1, 2], [3, 0, 4], [5, 6, 0]], weights=[1, 2, 3])
    sub = q.induced([2, 0])
    assert sub.vertices == ("v0", "v2")
    assert sub.adjacency == ((0, 2), (5, 0))
    assert sub.weights == (1, 3)


def test_to_dot():
    q = Quiver(["a", "b"], [[2, 1], [1, 0]], weights=[1, 2])
    dot = to_dot(q)
    assert dot.startswith("digraph quiver {")
    assert dot.count("[dir=none]") == 2    # one halved self-loop pair, one edge pair
    assert 'label="a\\n(1)"' in dot and 'label="b\\n(2)"' in dot

    one_way = mk([[0, 1], [0, 0]])
    d = to_dot(one_way)
    assert "v0 -> v1;" in d and "dir=none" not in d
