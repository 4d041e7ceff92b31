import json

import numpy as np
import pytest
import sympy

from eqlines.exactalg import Components, Ring, exact_dtype
from eqlines.hadamard import SignMatrix, paley, sylvester
from eqlines.sic import (
    SicError,
    SicSystem,
    applicable_primes,
    build_tilde,
    construct_sic,
    constructible_orders,
    gram_closed_form,
    gram_phase_matrix,
    scan_dimensions,
    tensor_gram_check,
    triple_product,
    verify_sic,
)


@pytest.fixture(scope="module")
def d2_sic():
    return construct_sic(sylvester(1), Ring("gf:3"))


def test_d2_vectors_match_known_values(d2_sic):
    # columns (2+i, 1), (2+i, 2), (1, 2+i), (1, 1+2i) in GF(9)
    want = [[(2, 1), (1, 0)], [(2, 1), (2, 0)], [(1, 0), (2, 1)], [(1, 0), (1, 2)]]
    got = [[(v.re, v.im) for v in vec] for vec in d2_sic.vectors]
    assert got == want


def test_d2_constants_reduce(d2_sic):
    v = verify_sic(d2_sic)
    assert v.passed
    assert (v.a_int % 3, v.b_int % 3, v.c_int % 3) == (0, 1, 0)
    assert (v.a_int, v.b_int, v.c_int) == (12, 16, 96)


def test_verify_rejects_tampering(d2_sic):
    vectors = [list(vec) for vec in d2_sic.vectors]
    vectors[0][0] = vectors[0][0] + d2_sic.ring.one
    bad = SicSystem(d2_sic.d, d2_sic.ring, tuple(tuple(v) for v in vectors),
                    d2_sic.source, d2_sic.z)
    assert not verify_sic(bad).passed


def test_construct_needs_dimension_congruence():
    with pytest.raises(SicError):
        construct_sic(sylvester(2), Ring("gf:3"))  # 4 != 8 mod 3
    with pytest.raises(SicError):
        construct_sic(sylvester(2), Ring("gauss"))  # char 0 needs d = 8


def test_construct_needs_hadamard():
    m = SignMatrix.from_array(np.ones((2, 2), dtype=np.int64))
    with pytest.raises(SicError):
        construct_sic(m, Ring("gf:3"))


def test_hoggar_verifies():
    s = construct_sic(sylvester(3), Ring("gauss"))
    v = verify_sic(s)
    assert v.passed and (v.a_int, v.b_int, v.c_int) == (12, 16, 96)


def test_closed_form_agrees_with_inner_products():
    ring = Ring("gf:7")
    h = paley(7, "I")  # d = 8, any odd prime characteristic works
    s = construct_sic(h, ring)
    d = h.d
    for u in [0, 5, 17, 40]:
        for w in [3, 11, 29, 63]:
            if u == w:
                continue
            acc = ring.zero
            for t in range(d):
                acc = acc + s.vectors[u][t].conj() * s.vectors[w][t]
            assert acc == gram_closed_form(h, ring, (u // d, u % d), (w // d, w % d))


def test_closed_form_rejects_diagonal():
    with pytest.raises(SicError):
        gram_closed_form(sylvester(1), Ring("gf:3"), (0, 1), (0, 1))


def test_phase_matrix_values_lie_in_z4(d2_sic):
    t = gram_phase_matrix(d2_sic.source)
    assert t.shape == (4, 4)
    assert set(np.unique(t)) <= {0, 1, 2, 3}


def test_tilde_of_order2_sylvester():
    bt = build_tilde(sylvester(1))
    want = np.array([
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ])
    assert np.array_equal(bt.array, want)


def test_tilde_entry_formula():
    h = sylvester(2)
    a = h.array
    bt = build_tilde(h).array
    d = h.d
    for i, j, k, l in [(0, 1, 2, 3), (3, 0, 1, 2), (2, 2, 2, 2)]:
        assert bt[i * d + j, k * d + l] == a[k, j] * a[i, l]


def test_tensor_gram_identity(d2_sic):
    assert tensor_gram_check(d2_sic)
    assert tensor_gram_check(construct_sic(sylvester(3), Ring("gauss")))


def test_triple_product_consistency(d2_sic):
    s = d2_sic
    ring = s.ring
    # direct computation of (x_u,x_v)(x_v,x_w)(x_w,x_u)
    u, v, w = 0, 1, 2
    def inner(a, b):
        acc = ring.zero
        for t in range(s.d):
            acc = acc + s.vectors[a][t].conj() * s.vectors[b][t]
        return acc
    assert triple_product(s, u, v, w) == inner(u, v) * inner(v, w) * inner(w, u)
    with pytest.raises(SicError):
        triple_product(s, 0, 0, 1)


def test_json_roundtrip(d2_sic):
    blob = json.dumps(d2_sic.to_json_dict())
    again = SicSystem.from_json_dict(json.loads(blob))
    assert again.d == d2_sic.d
    assert again.vectors == d2_sic.vectors
    assert verify_sic(again).passed


def test_applicable_primes():
    primes36, all36 = applicable_primes(36)
    assert primes36 == [7] and not all36
    primes20, all20 = applicable_primes(20)
    assert primes20 == [3] and not all20
    _, all8 = applicable_primes(8)
    assert all8


def test_scan_dimensions_prime3():
    hits = scan_dimensions(3, 50)
    assert [d for d, _ in hits] == [2, 8, 20, 32, 44]


def test_constructible_orders_contains_classics():
    orders = constructible_orders(32)
    assert 2 in orders and 8 in orders and 20 in orders and 24 in orders
    assert 6 not in orders


def test_rank_axiom(d2_sic):
    from eqlines.exactalg import mat_rank
    assert mat_rank(d2_sic.matrix()) == d2_sic.d


# d = 8 over GF(p^2) for primes past the int64 bound, where int64 Gram sums
# would overflow on these very systems: 506166779, 2^31 - 1 and 2^61 - 1
LARGE_PRIMES = [506166779, 2147483647, 2305843009213693951]


def _tampered(s, u, t, change):
    vectors = [list(v) for v in s.vectors]
    vectors[u][t] = change(vectors[u][t])
    return SicSystem(s.d, s.ring, tuple(tuple(v) for v in vectors), s.source, s.z)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_systems_verify_exactly(p):
    s = construct_sic(sylvester(3), Ring(f"gf:{p}"))
    assert verify_sic(s).passed
    off = ~np.eye(64, dtype=bool)
    assert np.array_equal(s.observed_phases[off], s.gram_phases[off])
    i = s.ring.i
    # x + i changes the norm of a +-1 component: (x_5, x_5) != 12
    v = verify_sic(_tampered(s, 5, 2, lambda x: x + i))
    assert (v.passed, v.failed_axiom, v.witness) == (False, "a", (5,))
    # i x keeps every norm but turns some (x_u, x_5) away from 4 i^k
    v = verify_sic(_tampered(s, 5, 2, lambda x: x * i))
    assert (v.passed, v.failed_axiom) == (False, "b") and 5 in v.witness


def _prime_3mod4(start, step):
    q = start
    while q % 4 != 3 or not sympy.isprime(q):
        q += step
    return q


def test_component_dtype_threshold():
    assert exact_dtype(2**63 - 1) is np.int64
    assert exact_dtype(2**63) is object
    # 64 x 8 components over GF(p^2): the bound 128 (p - 1)^2 reaches 2^63
    # exactly when p - 1 reaches 2^28
    below, above = _prime_3mod4(2**28, -1), _prime_3mod4(2**28, 1)
    for p, dtype in [(below, np.int64), (above, object)]:
        s = construct_sic(sylvester(3), Ring(f"gf:{p}"))
        assert Components.of(s.vectors, s.ring).re.dtype == dtype
        assert verify_sic(s).passed
        assert not verify_sic(_tampered(s, 0, 0, lambda x: x + s.ring.one)).passed
