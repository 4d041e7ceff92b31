import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup as SymGroup

from eqlines.analysis import hadamard_aut, sandwich_report
from eqlines.exactalg import Ring
from eqlines.hadamard import from_recipe, sylvester
from eqlines.permgroup import (
    PermError,
    PermGroup,
    Permutation,
    iota_embed,
    subgroup_index,
)
from eqlines.sic import construct_sic


def test_permutation_basics():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q).as_list() == [1, 0, 2]  # p(q(x))
    assert p.inverse().as_list() == [2, 0, 1]
    assert (p * p.inverse()).is_identity()
    assert p(0) == 1


def test_permutation_rejects_non_bijection():
    with pytest.raises(PermError):
        Permutation([0, 0, 1])


def test_from_cycles():
    p = Permutation.from_cycles(4, (0, 1, 2))
    assert p.as_list() == [1, 2, 0, 3]


def test_parity():
    assert Permutation([1, 0, 2]).parity() == 1
    assert Permutation([1, 2, 0]).parity() == 0
    assert Permutation.identity(5).parity() == 0


def test_symmetric_group_order():
    n = 5
    gens = [Permutation.from_cycles(n, (0, 1)), Permutation.from_cycles(n, tuple(range(n)))]
    g = PermGroup(gens)
    assert g.order() == 120
    assert g.is_transitive()
    assert g.is_k_transitive(5)


def test_membership():
    n = 4
    a4 = PermGroup([Permutation.from_cycles(n, (0, 1, 2)),
                    Permutation.from_cycles(n, (1, 2, 3))])
    assert a4.order() == 12
    assert a4.contains(Permutation.from_cycles(n, (0, 2, 3)))
    assert not a4.contains(Permutation.from_cycles(n, (0, 1)))


def test_orbits():
    g = PermGroup([Permutation.from_cycles(5, (0, 1), (2, 3))], 5)
    assert g.orbits() == [[0, 1], [2, 3], [4]]
    assert g.orbit_sizes() == [1, 2, 2]


def test_trivial_group():
    g = PermGroup([], n=6)
    assert g.order() == 1
    assert len(g.orbits()) == 6
    assert not g.is_transitive()


def test_k_transitivity_cyclic():
    c5 = PermGroup([Permutation.from_cycles(5, tuple(range(5)))])
    assert c5.is_k_transitive(1)
    assert not c5.is_k_transitive(2)
    assert c5.transitivity_degree() == 1


def test_transitivity_degree_alternating():
    n = 5
    a5 = PermGroup([Permutation.from_cycles(n, (0, 1, 2)),
                    Permutation.from_cycles(n, tuple(range(n)))])
    assert a5.order() == 60
    assert a5.transitivity_degree() == 3


def _affine(q, a, b):
    """x -> a x + b on GF(q), q prime."""
    return Permutation([(a * x + b) % q for x in range(q)])


TRANSITIVITY_CASES = {
    # base shorter than the largest k asked for
    "S3": PermGroup([Permutation([1, 0, 2]), Permutation([1, 2, 0])]),
    "AGL(1,5)": PermGroup([_affine(5, 1, 1), _affine(5, 2, 0)]),
    # sharply 3-transitive on GF(5) + {oo}, oo as point 5: x -> x + 1,
    # x -> 2x, x -> -1/x
    "PGL(2,5)": PermGroup([Permutation([1, 2, 3, 4, 0, 5]),
                           Permutation([0, 2, 4, 1, 3, 5]),
                           Permutation([5, 4, 2, 3, 1, 0])]),
    "C5": PermGroup([_affine(5, 1, 1)]),
    "D5": PermGroup([_affine(5, 1, 1), _affine(5, 4, 0)]),
    "intransitive": PermGroup([Permutation.from_cycles(5, (0, 1), (2, 3, 4))]),
    "fixes a point": PermGroup([Permutation.from_cycles(5, (0, 1)),
                                Permutation.from_cycles(5, (0, 1, 2, 3))]),
    "trivial on 1": PermGroup([], n=1),
    "trivial on 4": PermGroup([], n=4),
}


def _brute_k_transitive(g: PermGroup, k: int) -> bool:
    """The orbit of one ordered k-tuple of distinct points, closed under the
    generators, against the count of all such tuples."""
    start = tuple(range(k))
    orbit, frontier = {start}, [start]
    while frontier:
        t = frontier.pop()
        for gen in g.generators:
            u = tuple(gen(x) for x in t)
            if u not in orbit:
                orbit.add(u)
                frontier.append(u)
    return len(orbit) == sum(1 for _ in permutations(range(g.n), k))


@pytest.mark.parametrize("name", list(TRANSITIVITY_CASES))
def test_transitivity_matches_brute_force(name):
    g = TRANSITIVITY_CASES[name]
    brute = [_brute_k_transitive(g, k) for k in range(1, g.n + 1)]
    assert [g.is_k_transitive(k) for k in range(1, g.n + 1)] == brute
    degree = sum(brute)  # k-transitive implies (k-1)-transitive
    assert brute == [True] * degree + [False] * (g.n - degree)
    for cap in range(g.n + 2):
        assert g.transitivity_degree(cap) == min(cap, degree)
    for k in (0, g.n + 1):
        with pytest.raises(PermError):
            g.is_k_transitive(k)


def test_transitivity_degrees_of_named_groups():
    degrees = {name: g.transitivity_degree() for name, g in TRANSITIVITY_CASES.items()}
    assert degrees == {"S3": 3, "AGL(1,5)": 2, "PGL(2,5)": 3, "C5": 1, "D5": 1,
                       "intransitive": 0, "fixes a point": 0,
                       "trivial on 1": 1, "trivial on 4": 0}
    assert TRANSITIVITY_CASES["PGL(2,5)"].order() == 120


def test_subgroup_index():
    n = 4
    s4 = PermGroup([Permutation.from_cycles(n, (0, 1)),
                    Permutation.from_cycles(n, tuple(range(n)))])
    a4 = PermGroup([Permutation.from_cycles(n, (0, 1, 2)),
                    Permutation.from_cycles(n, (1, 2, 3))])
    assert subgroup_index(s4, a4) == 2
    with pytest.raises(PermError):
        subgroup_index(a4, s4)


def test_iota_embed():
    pi = Permutation([1, 0])
    sigma = Permutation([0, 1])
    e = iota_embed(pi, sigma)
    # (i,j) -> (pi i, j) on row-major pairs
    assert e.as_list() == [2, 3, 0, 1]
    ident = iota_embed(Permutation.identity(3), Permutation.identity(3))
    assert ident.is_identity()


# ---------------------------------------------------------------------------
# the stabilizer chain against sympy.combinatorics as an oracle


def _oracle(g: PermGroup) -> SymGroup:
    gens = [SymPerm(p.as_list()) for p in g.generators]
    return SymGroup(gens or [SymPerm(list(range(g.n)))])


def _words(g: PermGroup, rng, count: int, length: int = 12) -> list[Permutation]:
    """Random products of generators: members of g."""
    out = []
    for _ in range(count):
        w = Permutation.identity(g.n)
        for i in rng.integers(len(g.generators), size=length if g.generators else 0):
            w = w * g.generators[i]
        out.append(w)
    return out


def _oracle_degree(sym: SymGroup, n: int) -> int:
    """Largest k for which the orbit of the tuple (0, ..., k-1) holds all
    n!/(n-k)! tuples of distinct points (sympy's own transitivity_degree
    took 23 s on S_12)."""
    k = 0
    while k < n and (sym.order() // sym.pointwise_stabilizer(list(range(k + 1))).order()
                     == math.perm(n, k + 1)):
        k += 1
    return k


def _agrees_with_oracle(g: PermGroup, candidates: list[Permutation]) -> int:
    """Compares order, transitivity degree and membership of every
    candidate with sympy; returns how many candidates are not members."""
    sym = _oracle(g)
    assert g.order() == sym.order()
    assert g.transitivity_degree(cap=g.n) == _oracle_degree(sym, g.n)
    outside = 0
    for p in candidates:
        member = g.contains(p)
        assert member == sym.contains(SymPerm(p.as_list()))
        outside += not member
    return outside


@pytest.fixture(scope="module")
def hoggar_groups():
    s = construct_sic(sylvester(3), Ring("gauss"))
    return sandwich_report(s).groups


@pytest.mark.parametrize("name", ["iota_weak_H", "strong_sic", "weak_sic", "strong_tilde"])
def test_hoggar_chain_matches_sympy(hoggar_groups, name):
    g = hoggar_groups[name]
    rng = np.random.default_rng(1)
    # non-members: generators of the larger groups of the chain, and random
    # permutations
    others = [p for h in hoggar_groups.values() for p in h.generators]
    randoms = [Permutation(rng.permutation(g.n)) for _ in range(5)]
    outside = _agrees_with_oracle(g, _words(g, rng, 10) + others + randoms)
    assert outside >= 5


@pytest.mark.parametrize("recipe", ["sylvester:5", "paley1:31", "paley2:17"])
def test_wide_weak_hadamard_groups_match_sympy(recipe):
    g = hadamard_aut(from_recipe(recipe), "weak")
    rng = np.random.default_rng(2)
    randoms = [Permutation(rng.permutation(g.n)) for _ in range(5)]
    assert _agrees_with_oracle(g, _words(g, rng, 10) + randoms) == 5


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_subgroups_of_small_symmetric_groups_match_sympy(data):
    n = data.draw(st.integers(1, 12), label="n")
    gens = data.draw(st.lists(st.permutations(range(n)), max_size=4), label="gens")
    g = PermGroup([Permutation(p) for p in gens], n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    randoms = [Permutation(rng.permutation(n)) for _ in range(4)]
    _agrees_with_oracle(g, _words(g, rng, 4) + randoms)


def _chain_arrays(chain) -> list[np.ndarray]:
    """Copies of every array of a stabilizer chain, level by level."""
    out = [chain.strong.copy(), chain.strong_inv.copy()]
    for level in chain.levels:
        out += [a.copy() for a in (level.orbit, level.where, level.u, level.u_inv,
                                   level.gens, level.proven)]
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_grown_from_a_subgroup_matches_a_fresh_chain(data):
    """G = <A u B> with its chain grown from <A>'s: the same order,
    membership verdicts and transitivity degree as a fresh chain of G and
    as sympy, and <A>'s own chain is left as it was."""
    n = data.draw(st.integers(1, 12), label="n")
    a = [Permutation(p) for p in data.draw(st.lists(st.permutations(range(n)), max_size=3),
                                           label="A")]
    b = [Permutation(p) for p in data.draw(st.lists(st.permutations(range(n)), max_size=3),
                                           label="B")]
    sub = PermGroup(a, n)
    sub_order = sub.order()
    before = _chain_arrays(sub._chain)
    grown = PermGroup(a + b, n, subgroup=sub)
    fresh = PermGroup(a + b, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    candidates = _words(fresh, rng, 4) + [Permutation(rng.permutation(n)) for _ in range(4)]
    _agrees_with_oracle(grown, candidates)
    assert grown.order() == fresh.order()
    assert [grown.contains(p) for p in candidates] == [fresh.contains(p) for p in candidates]
    assert grown.transitivity_degree(cap=n) == fresh.transitivity_degree(cap=n)
    # grown from the subgroup's chain, whose strong generators come first
    k = len(sub._chain.strong)
    assert np.array_equal(grown._chain.strong[:k], sub._chain.strong)
    assert sub.order() == sub_order
    after = _chain_arrays(sub._chain)
    assert len(after) == len(before)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_subgroup_generators_must_be_among_the_generators():
    n = 4
    a4 = PermGroup([Permutation.from_cycles(n, (0, 1, 2)),
                    Permutation.from_cycles(n, (1, 2, 3))])
    s4 = PermGroup([Permutation.from_cycles(n, (0, 1)), Permutation.from_cycles(n, (0, 1, 2, 3))])
    with pytest.raises(PermError, match="not among the generators"):
        PermGroup(s4.generators, n, subgroup=a4)
    with pytest.raises(PermError, match="not among the generators"):
        PermGroup([Permutation.identity(5)], 5, subgroup=a4)
    grown = PermGroup(a4.generators + s4.generators, n, subgroup=a4)
    assert grown.order() == 24 and subgroup_index(grown, a4) == 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_orbits_match_sympy(data):
    n = data.draw(st.integers(1, 12), label="n")
    gens = data.draw(st.lists(st.permutations(range(n)), max_size=4), label="gens")
    g = PermGroup([Permutation(p) for p in gens], n)
    want = sorted(sorted(int(x) for x in orbit) for orbit in _oracle(g).orbits())
    assert g.orbits() == want
    assert all(type(x) is int for orbit in g.orbits() for x in orbit)
