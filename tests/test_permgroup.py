from itertools import permutations

import numpy as np
import pytest

from eqlines.permgroup import (
    PermError,
    PermGroup,
    Permutation,
    iota_embed,
    subgroup_index,
)


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
