import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import event, given, settings
from hypothesis import strategies as st

from eqlines import exactalg
from eqlines.exactalg import (
    FLOAT32_EXACT,
    FLOAT_EXACT,
    Components,
    Ring,
    exact_dtype,
    gram_bound,
)
from eqlines.hadamard import SignMatrix, from_recipe, paley, sylvester
from eqlines.sic import (
    A_INT,
    B_INT,
    C_INT,
    SicError,
    SicSystem,
    applicable_primes,
    build_tilde,
    construct_sic,
    constructible_orders,
    gram_phase_matrix,
    scan_dimensions,
    tensor_gram_check,
    triple_product,
    verify_sic,
)


@pytest.fixture(scope="module")
def d2_sic():
    return construct_sic(sylvester(1), Ring("gf:3"))


def _pairs(s):
    """The vectors as lists of (re, im) component pairs."""
    return [list(zip(re, im)) for re, im in zip(s.vectors.re.tolist(), s.vectors.im.tolist())]


def _element(s, u, t):
    return s.ring.el(s.vectors.re[u, t], s.vectors.im[u, t])


def test_d2_vectors_match_known_values(d2_sic):
    # columns (2+i, 1), (2+i, 2), (1, 2+i), (1, 1+2i) in GF(9)
    want = [[(2, 1), (1, 0)], [(2, 1), (2, 0)], [(1, 0), (2, 1)], [(1, 0), (1, 2)]]
    assert _pairs(d2_sic) == want


@pytest.mark.parametrize("recipe,ring", [
    ("sylvester:3", "gauss"), ("sylvester:3", "gaussq"), ("paley1:7", "gf:7"),
    ("sylvester:3", "gf:2305843009213693951"),
])
def test_construct_matches_elementwise_formula(recipe, ring):
    """construct_sic's arrays are x_ij[t] = H[t, j], times 1 + z at t = i,
    formed element by element in the ring and stored by Components.of."""
    h, r = from_recipe(recipe), Ring(ring)
    s = construct_sic(h, r)
    d, one_z = h.d, r.one + r.el(-2, -2)
    rows = [[r.el(h.array[t, j]) * (one_z if t == i else r.one) for t in range(d)]
            for i in range(d) for j in range(d)]
    want = Components.of(rows, r)
    for a, b in [(s.vectors.re, want.re), (s.vectors.im, want.im)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_d2_constants_reduce(d2_sic):
    v = verify_sic(d2_sic)
    assert v.passed
    assert (v.a_int % 3, v.b_int % 3, v.c_int % 3) == (0, 1, 0)
    assert (v.a_int, v.b_int, v.c_int) == (12, 16, 96)


def test_verify_rejects_tampering(d2_sic):
    with pytest.raises(ValueError):  # the stored arrays are read-only
        d2_sic.vectors.re[0, 0] = 0
    bad = _tampered(d2_sic, 0, 0, lambda x: x + d2_sic.ring.one)
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
    phase = gram_phase_matrix(h)
    for u in [0, 5, 17, 40]:
        for w in [3, 11, 29, 63]:
            if u == w:
                continue
            acc = ring.zero
            for t in range(d):
                acc = acc + _element(s, u, t).conj() * _element(s, w, t)
            assert acc == ring.el(4) * ring.i_power(int(phase[u, w]))


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
            acc = acc + _element(s, a, t).conj() * _element(s, b, t)
        return acc
    assert triple_product(s, u, v, w) == inner(u, v) * inner(v, w) * inner(w, u)
    with pytest.raises(SicError):
        triple_product(s, 0, 0, 1)


@pytest.mark.parametrize("recipe,ring", [
    ("sylvester:1", "gf:3"), ("sylvester:3", "gauss"), ("sylvester:3", "gaussq"),
    ("sylvester:3", "gf:2305843009213693951"),
])
def test_json_roundtrip(recipe, ring):
    s = construct_sic(from_recipe(recipe), Ring(ring))
    blob = json.dumps(s.to_json_dict())
    again = SicSystem.from_json_dict(json.loads(blob))
    assert again.d == s.d
    for a, b in [(again.vectors.re, s.vectors.re), (again.vectors.im, s.vectors.im)]:
        assert a.dtype == b.dtype == (object if ring.startswith("gf:2305") else np.int64)
        assert np.array_equal(a, b)
    assert verify_sic(again).passed


@pytest.mark.parametrize("shift", [-3, 3 * 10 ** 20, 3.0],
                         ids=["negative int64", "beyond int64", "integral float"])
def test_json_reduces_saved_components(shift):
    # int64 values are reduced with numpy, other values one at a time by
    # ring.el; both give the residues construct_sic gives
    s = construct_sic(sylvester(1), Ring("gf:3"))
    blob = s.to_json_dict()
    blob["vectors"] = [[[re + shift, im - shift] for re, im in vec] for vec in blob["vectors"]]
    again = SicSystem.from_json_dict(blob)
    for a, b in [(again.vectors.re, s.vectors.re), (again.vectors.im, s.vectors.im)]:
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


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
    assert mat_rank(d2_sic.vectors) == d2_sic.d


# d = 8 over GF(p^2) for primes past the int64 bound, where int64 Gram sums
# would overflow on these very systems: 506166779, 2^31 - 1 and 2^61 - 1
LARGE_PRIMES = [506166779, 2147483647, 2305843009213693951]


def _tampered(s, u, t, change):
    """A copy of s with component t of x_u replaced by change(x_u[t])."""
    re, im = s.vectors.re.copy(), s.vectors.im.copy()
    x = change(_element(s, u, t))
    re[u, t], im[u, t] = x.re, x.im
    return SicSystem(s.d, s.ring, Components(re, im, s.ring), s.source)


def _assert_verifies_exactly(s):
    """s passes, its phase table is the closed form, and tampered copies
    fail axioms a and b."""
    assert verify_sic(s).passed
    assert np.array_equal(s.phases, gram_phase_matrix(s.source))
    i = s.ring.i
    # x + i changes the norm of a +-1 component: (x_5, x_5) != 12
    v = verify_sic(_tampered(s, 5, 2, lambda x: x + i))
    assert (v.passed, v.failed_axiom, v.witness) == (False, "a", (5,))
    # i x keeps every norm but turns some (x_u, x_5) away from 4 i^k
    v = verify_sic(_tampered(s, 5, 2, lambda x: x * i))
    assert (v.passed, v.failed_axiom) == (False, "b") and 5 in v.witness
    with pytest.raises(SicError, match=r"is not 4 i\^k"):
        _tampered(s, 5, 2, lambda x: x * i).phases


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_prime_systems_verify_exactly(p):
    _assert_verifies_exactly(construct_sic(sylvester(3), Ring(f"gf:{p}")))


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
        assert s.vectors.re.dtype == s.vectors.im.dtype == dtype
        rows = [[_element(s, u, t) for t in range(s.d)] for u in range(s.d ** 2)]
        assert Components.of(rows, s.ring).re.dtype == dtype
        assert verify_sic(s).passed
        assert not verify_sic(_tampered(s, 0, 0, lambda x: x + s.ring.one)).passed


def test_float64_gram_threshold():
    # 64 x 8 components over GF(p^2): gram_bound 128 (p - 1)^2 reaches 2^53
    # exactly when p - 1 reaches 2^23; below it the Gram matrices are float64
    # products, above it int64 ones
    below, above = _prime_3mod4(2**23 + 1, -1), _prime_3mod4(2**23 + 2, 1)
    for p, in_float64 in [(below, True), (above, False)]:
        s = construct_sic(sylvester(3), Ring(f"gf:{p}"))
        assert s.vectors.re.dtype == np.int64
        assert (gram_bound(s.vectors.re.shape, p - 1) <= FLOAT_EXACT) == in_float64
        _assert_verifies_exactly(s)


def _verify_full_gram(s):
    """(passed, failed_axiom, witness) by verify_sic's formulation on the
    whole Gram matrix: both n x n Gram arrays in the components' own dtype,
    reduced with %, axiom (a) on their diagonal, (b) on the full square,
    (c) on the Gram matrix of the coordinates and (d) on the elimination of
    every row."""
    ring, d, x = s.ring, s.d, s.vectors
    p = ring.char
    a, b, c = (int(ring.el(v).re) for v in (A_INT, B_INT, C_INT))

    def gram(re, im):
        gre = re @ re.T + im @ im.T
        gim = re @ im.T - im @ re.T
        return (gre % p, gim % p) if p else (gre, gim)

    gre, gim = gram(x.re, x.im)
    bad = np.flatnonzero((np.diag(gre) != a) | (np.diag(gim) != 0))
    if len(bad):
        return False, "a", (int(bad[0]),)
    norm = gre * gre + gim * gim
    if p:
        norm %= p
    np.fill_diagonal(norm, b)
    bad = np.argwhere(norm != b)
    if len(bad):
        return False, "b", tuple(int(w) for w in bad[0])
    fre, fim = gram(x.re.T, x.im.T)
    bad = np.argwhere((fre != c * np.eye(d, dtype=np.int64)) | (fim != 0))
    if len(bad):
        return False, "c", tuple(int(w) for w in bad[0])
    if exactalg._eliminate(x) != d:
        return False, "d", ()
    return True, None, None


def _d8_prime(bound, edge, step):
    """The prime p = 3 (mod 4) nearest to the last p - 1 whose bound for a
    d = 8 system over GF(p^2) is at most edge, below it (step -1) or past
    it (step 1)."""
    top = 1
    while bound(top + 1) <= edge:
        top += 1
    return _prime_3mod4(top + 1 if step < 0 else top + 2, step)


def _gram_d8(top):
    return gram_bound((64, 8), top)


# each ring of the agreement test, with the primes on either side of the
# float32, int32 and float64 edges of a d = 8 system's Gram blocks
AGREEMENT_RINGS = ["gf:3", "gf:7", "gf:11", "gf:2147483647", "gauss", "gaussq"] + [
    f"gf:{_d8_prime(bound, edge, step)}"
    for bound, edge in [(_gram_d8, FLOAT32_EXACT),
                        (lambda top: _gram_d8(top) + top + 1, 2**31 - 1),
                        (_gram_d8, FLOAT_EXACT)]
    for step in (-1, 1)]


@pytest.fixture(scope="module")
def agreement_systems():
    return {ring: construct_sic(sylvester(3), Ring(ring)) for ring in AGREEMENT_RINGS}


def _retouched(s, changes):
    """A copy of s with component t of x_u set to change(x_u[t]) for each
    (u, t, change), its arrays rebuilt by Components.of."""
    rows = [[_element(s, u, t) for t in range(s.d)] for u in range(len(s.vectors.re))]
    for u, t, change in changes:
        rows[u][t] = change(rows[u][t])
    return SicSystem(s.d, s.ring, Components.of(rows, s.ring), s.source)


@st.composite
def _changes(draw, s):
    """Up to two (u, t, change): a component replaced in re, in im or in
    both, by a drawn value (a Fraction over gaussq) or by i, -1 or
    conjugation applied to it."""
    ring = s.ring
    if ring.char:
        value = st.integers(0, ring.char - 1)
    elif ring.spec.kind == "gaussian":
        value = st.integers(-4, 4)
    else:
        value = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    out = []
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, s.d * s.d - 1))
        t = draw(st.integers(0, s.d - 1))
        part = draw(st.sampled_from(["re", "im", "both", "times i", "negate", "conj"]))
        new_re, new_im = draw(value), draw(value)
        change = {
            "re": lambda x, r=new_re: ring.el(r, x.im),
            "im": lambda x, i=new_im: ring.el(x.re, i),
            "both": lambda x, r=new_re, i=new_im: ring.el(r, i),
            "times i": lambda x: x * ring.i,
            "negate": lambda x: -x,
            "conj": lambda x: x.conj(),
        }[part]
        out.append((u, t, change))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verdicts_match_full_gram(agreement_systems, data):
    """verify_sic, streaming the upper triangle, and the full-Gram
    formulation agree on the verdict, the failed axiom and its witness,
    also when a vector is dropped, which fails the frame axiom (c)."""
    s = agreement_systems[data.draw(st.sampled_from(AGREEMENT_RINGS))]
    t = _retouched(s, data.draw(_changes(s)))
    if data.draw(st.booleans()):
        keep = np.arange(s.d * s.d) != data.draw(st.integers(0, s.d * s.d - 1))
        x = t.vectors
        t = SicSystem(s.d, s.ring, Components(x.re[keep], x.im[keep], s.ring), s.source)
    v = verify_sic(t)
    assert (v.passed, v.failed_axiom, v.witness) == _verify_full_gram(t)
    event(f"{v.failed_axiom}")


def test_agreement_rings_straddle_the_dtype_edges(agreement_systems):
    """The primes of AGREEMENT_RINGS put d = 8 systems on each side of the
    float32 and float64 product edges and of the int32 entry edge."""
    tiers = [exactalg.gram_dtypes(s.vectors.entry_bound(), s.ring.char)
             for s in agreement_systems.values() if s.vectors.re.dtype != object]
    assert {product for product, _ in tiers} == {np.float32, np.float64, np.int64}
    assert {entry for _, entry in tiers} == {np.int32, np.int64}
    assert agreement_systems["gf:2147483647"].vectors.re.dtype == object


@pytest.mark.parametrize("changes", [
    [], [(5, 2, "times i")], [(700, 3, "plus 1")], [(1000, 31, "times i")],
    [(17, 0, "times i"), (900, 9, "negate")], [(1023, 31, "conj")],
], ids=str)
def test_d32_verdicts_match_full_gram(changes):
    s = construct_sic(sylvester(5), Ring("gf:3"))
    ring = s.ring
    ops = {"times i": lambda x: x * ring.i, "plus 1": lambda x: x + ring.one,
           "negate": lambda x: -x, "conj": lambda x: x.conj()}
    t = _retouched(s, [(u, c, ops[op]) for u, c, op in changes])
    v = verify_sic(t)
    assert (v.passed, v.failed_axiom, v.witness) == _verify_full_gram(t)
