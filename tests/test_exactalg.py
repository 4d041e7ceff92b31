import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlines import exactalg
from eqlines.exactalg import (
    FLOAT32_EXACT,
    FLOAT_EXACT,
    Components,
    Ring,
    RingError,
    RingSpec,
    gram_bound,
    mat_rank,
    rank_fraction_free,
)
from eqlines.hadamard import from_recipe
from eqlines.sic import construct_sic


def test_spec_parse_roundtrip():
    for text in ["gf:3", "gf:7", "gf:11", "gauss", "gaussq"]:
        assert str(RingSpec.parse(text)) == text


def test_spec_rejects_bad_primes():
    with pytest.raises(RingError):
        RingSpec.parse("gf:5")  # 5 = 1 mod 4, t^2+1 reducible
    with pytest.raises(RingError):
        RingSpec.parse("gf:2")
    with pytest.raises(RingError):
        RingSpec.parse("gf:9")


def test_finite_field_basics():
    r = Ring("gf:3")
    i = r.i
    assert i * i == -r.one
    assert (r.el(2, 1) * r.el(1, 2)) == r.el(0, 2)
    x = r.el(2, 1)
    assert x.conj() == r.el(2, 2)
    assert x * x.inv() == r.one
    assert x.norm() == (x * x.conj()).re


def test_finite_field_is_field():
    # every nonzero element of GF(49) must invert
    r = Ring("gf:7")
    for a in range(7):
        for b in range(7):
            x = r.el(a, b)
            if x.is_zero():
                continue
            assert x * x.inv() == r.one


def test_gaussian_integer_arithmetic():
    r = Ring("gauss")
    z = r.el(-2, -2)
    assert z * z == r.el(0, 8)
    assert z.conj() == r.el(-2, 2)
    assert z.norm() == 8
    with pytest.raises(RingError):
        r.el(2, 0).inv()  # not a unit
    assert r.el(0, 1).inv() == r.el(0, -1)


@pytest.mark.parametrize("spec", ["gf:3", "gauss", "gaussq"])
def test_booleans_are_not_components(spec):
    # int() and Fraction() would read them as 1 and 0
    r = Ring(spec)
    for v in (True, False, np.True_):
        with pytest.raises(RingError):
            r.el(v)
        with pytest.raises(RingError):
            r.el(0, v)


def test_gaussian_fraction_division():
    r = Ring("gaussq")
    x = r.el(3, 1) / r.el(1, 2)
    assert x * r.el(1, 2) == r.el(3, 1)


def test_pow_matches_repeated_multiplication():
    r = Ring("gf:11")
    x = r.el(4, 7)
    acc = r.one
    for k in range(8):
        assert x ** k == acc
        acc = acc * x


def test_i_power_cycle():
    for spec in ["gf:3", "gauss"]:
        r = Ring(spec)
        assert [r.i_power(t) for t in range(4)] == [r.one, r.i, -r.one, -r.i]
        assert r.i_power(6) == -r.one


def _scalars(rows, r):
    return Components.of([[r.el(v) for v in row] for row in rows], r)


def test_matrix_product_and_gram():
    r = Ring("gf:3")
    ident = _scalars([[1, 0], [0, 1]], r)
    assert [a.tolist() for a in ident.T.gram()] == [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    gre, gim = _scalars([[1, 2], [0, 1]], r).T.gram()
    # gram of a real matrix: entries are plain dot products mod 3
    assert (gre[0, 0], gim[0, 0]) == (1, 0)
    assert (gre[1, 1], gim[1, 1]) == (2, 0)


def test_gram_conjugates_first_argument():
    r = Ring("gauss")
    gre, gim = Components.of([[r.el(0, 1)], [r.el(1, 0)]], r).T.gram()
    # (i,1).(i,1) with conjugation = (-i)(i) + 1 = 2
    assert (gre[0, 0], gim[0, 0]) == (2, 0)


def test_rank_finite():
    r = Ring("gf:3")
    assert mat_rank(_scalars([[1, 2, 0], [0, 1, 1], [1, 0, 1]], r)) == 2
    assert mat_rank(_scalars([[1, 0, 0], [0, 1, 0], [0, 0, 2]], r)) == 3


def test_rank_gaussian_two_methods_agree():
    r = Ring("gauss")
    rows = [
        [r.el(1, 1), r.el(2, 0), r.el(0, 3)],
        [r.el(2, 2), r.el(4, 0), r.el(0, 6)],
        [r.el(0, 1), r.el(1, 1), r.el(3, 0)],
    ]
    assert mat_rank(Components.of(rows, r)) == rank_fraction_free(rows) == 2
    # non-real, non-unit pivots, and a last row that is a combination of
    # three others: each division by the previous pivot must be exact
    rows = [[r.el(*c) for c in row] for row in [
        [(1, 2), (3, 0), (-1, 1), (2, 0), (0, 0)],
        [(2, -1), (1, 1), (4, 0), (0, -3), (1, 0)],
        [(3, 0), (-2, 2), (1, 0), (1, 0), (2, -1)],
    ]]
    c = [r.el(1, 1), r.el(-2), r.el(0, 1)]
    rows.append([c[0] * x + c[1] * y + c[2] * z for x, y, z in zip(*rows)])
    assert mat_rank(Components.of(rows, r)) == rank_fraction_free(rows) == 3


def test_mod3_wraparound():
    r = Ring("gf:3")
    assert r.el(-1, -2) == r.el(2, 1)
    assert r.el(5) == r.el(2)


def _span_rank(re, im, p):
    """log_{p^2} of the size of the row span over GF(p^2), the span counted
    by enumerating every combination of the rows."""
    re, im = re.astype(np.int16), im.astype(np.int16)
    n = re.shape[1]
    a, b = (g.ravel() for g in np.meshgrid(*[np.arange(p, dtype=np.int16)] * 2, indexing="ij"))
    sre = sim = np.zeros((1, n), dtype=np.int16)
    for r in range(re.shape[0]):
        # every span vector plus every multiple (a + bi) row_r
        mre = (a[:, None] * re[r] - b[:, None] * im[r]) % p
        mim = (a[:, None] * im[r] + b[:, None] * re[r]) % p
        sre = ((sre[:, None] + mre[None]) % p).reshape(-1, n)
        sim = ((sim[:, None] + mim[None]) % p).reshape(-1, n)
        codes = (sre + p * sim) @ (p * p) ** np.arange(n, dtype=np.int64)
        _, keep = np.unique(codes, return_index=True)
        sre, sim = sre[keep], sim[keep]
    size, rank = len(sre), 0
    while (p * p) ** rank < size:
        rank += 1
    assert (p * p) ** rank == size
    return rank


@st.composite
def _matrices(draw, lo, hi, rows=3, cols=4):
    """(re, im) integer arrays of at most rows x cols, zero-heavy, and with
    the last row sometimes a Gaussian-integer combination of the others."""
    m = draw(st.integers(1, rows))
    n = draw(st.integers(1, cols))
    entry = st.one_of(st.just(0), st.integers(lo, hi))
    re = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                min_size=m, max_size=m)), dtype=np.int64)
    im = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                min_size=m, max_size=m)), dtype=np.int64)
    if m >= 3 and draw(st.booleans()):
        cr, ci = (np.array(draw(st.lists(st.integers(-2, 2), min_size=m - 1, max_size=m - 1)))
                  for _ in range(2))
        re[-1] = cr @ re[:-1] - ci @ im[:-1]
        im[-1] = cr @ im[:-1] + ci @ re[:-1]
    return re, im


def _exact(re, im, ring):
    return [[ring.el(int(a), int(b)) for a, b in zip(r, i)] for r, i in zip(re, im)]


@pytest.mark.parametrize("p", [3, 7, 11])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_finite_matches_span_count(p, data):
    re, im = data.draw(_matrices(0, p - 1))
    ring = Ring(f"gf:{p}")
    assert mat_rank(Components.of(_exact(re, im, ring), ring)) == _span_rank(re % p, im % p, p)


@settings(max_examples=60, deadline=None)
@given(_matrices(-4, 4, rows=4, cols=5), st.integers(1, 6))
def test_rank_gaussian_matches_fraction_free(mat, den):
    re, im = mat
    r = Ring("gauss")
    rows = _exact(re, im, r)
    rank = mat_rank(Components.of(rows, r))
    assert rank == rank_fraction_free(rows)
    # over Q(i), dividing the first row by den changes no rank
    q = Ring("gaussq")
    rows = _exact(re, im, q)
    rows[0] = [x / q.el(den) for x in rows[0]]
    assert mat_rank(Components.of(rows, q)) == rank


@pytest.mark.parametrize("recipe,ring", [
    ("sylvester:3", "gauss"), ("sylvester:3", "gaussq"), ("sylvester:3", "gf:7"),
    ("sylvester:5", "gf:3"),
])
def test_rank_of_constructions(recipe, ring):
    s = construct_sic(from_recipe(recipe), Ring(ring))
    m = s.vectors.T  # row t holds coordinate t of every vector
    assert mat_rank(m) == s.d
    re, im = m.re.copy(), m.im.copy()
    re[3], im[3] = re[1], im[1]
    assert mat_rank(Components(re, im, m.ring)) == s.d - 1


def test_component_dtype_in_characteristic_zero():
    r = Ring("gauss")
    assert Components.of([[r.el(3, -2)]], r).re.dtype == np.int64
    big = Components.of([[r.el(2**40, 1)]], r)  # norm bound 2 (2 * 2^80)^2
    assert big.re.dtype == object and big.re[0, 0] == 2**40
    q = Ring("gaussq")
    assert Components.of([[q.el(1, 0) / q.el(3)]], q).re.dtype == object


def _float64_edge(shape, exact=FLOAT_EXACT):
    """The largest component size whose gram_bound is within 2^53, or
    within ``exact``."""
    return math.isqrt(exact // (2 * max(shape)))


def _prime_3mod4(start, step):
    q = start
    while q % 4 != 3 or not sympy.isprime(q):
        q += step
    return q


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gram_matches_python_integers(data):
    """Components.gram of int64 components, float32, float64 or int64 as
    gram_bound says, equals the product of the same components as Python
    integers, also at and just past the float32 and float64 bounds."""
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    edge, edge32 = _float64_edge(shape), _float64_edge(shape, FLOAT32_EXACT)
    if data.draw(st.booleans()):
        ring = Ring("gauss")
        top = data.draw(st.sampled_from([edge32, edge32 + 1, edge, edge + 1, 4 * edge])
                        | st.integers(1, 50))
        lo = -top
    else:
        p = data.draw(st.sampled_from([
            3, 7, _prime_3mod4(edge32 + 1, -1), _prime_3mod4(edge32 + 2, 1),
            _prime_3mod4(edge + 1, -1), _prime_3mod4(edge + 2, 1)]))
        ring, top, lo = Ring(f"gf:{p}"), p - 1, 0
    entry = st.sampled_from([lo, top]) | st.integers(lo, top)
    re, im = (np.array(data.draw(st.lists(entry, min_size=shape[0] * shape[1],
                                          max_size=shape[0] * shape[1])),
                       dtype=np.int64).reshape(shape) for _ in range(2))
    re[0, 0] = top
    c = Components(re, im, ring)
    exact = Components(re.astype(object), im.astype(object), ring)
    for got, want in [(c.gram(), exact.gram()), (c.T.gram(), exact.T.gram())]:
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and np.array_equal(a, b)


def _spy_products(monkeypatch):
    """The product dtypes gram_dtypes picks from here on, one per Gram
    computation."""
    products = []
    dtypes = exactalg.gram_dtypes

    def spy(bound, p):
        out = dtypes(bound, p)
        products.append(out[0])
        return out

    monkeypatch.setattr(exactalg, "gram_dtypes", spy)
    return products


def test_gram_tier_follows_gram_bound(monkeypatch):
    products = _spy_products(monkeypatch)
    r = Ring("gauss")
    edge = _float64_edge((2, 3))
    for top, in_float64 in [(edge, True), (-edge - 1, False), (3, True)]:
        products.clear()
        re = np.array([[top, 1, 0], [2, -1, 1]], dtype=np.int64)
        c = Components(re, re[::-1].copy(), r)
        assert (gram_bound(re.shape, abs(top)) <= FLOAT_EXACT) == in_float64
        c.gram()
        used = [dt for dt in products if dt in (np.float32, np.float64)]
        assert len(used) == in_float64


def test_gram_dtype_tiers_at_their_edges():
    """float32 products up to a bound of 2^24, float64 up to 2^53, int64
    beyond; int32 entries while bound + p < 2^31, int64 while it is below
    2^63, Python integers past it."""
    for bound, p, want in [
        (2**24, 0, (np.float32, np.int32)), (2**24 + 1, 0, (np.float64, np.int32)),
        (2**24, 2**31 - 2**24 - 1, (np.float32, np.int32)),
        (2**24, 2**31 - 2**24, (np.float32, np.int64)),
        (2**31 - 1, 0, (np.float64, np.int32)), (2**31, 0, (np.float64, np.int64)),
        (2**53, 7, (np.float64, np.int64)), (2**53 + 1, 7, (np.int64, np.int64)),
        (2**63 - 8, 7, (np.int64, np.int64)), (2**63 - 7, 7, (object, object)),
    ]:
        assert exactalg.gram_dtypes(bound, p) == want, (bound, p)


@pytest.mark.parametrize("transpose", [False, True])
def test_gram_float32_tier_at_two_to_the_24(monkeypatch, transpose):
    """2 x 2 components of size 2^11 have gram_bound 2^24 and are
    multiplied in float32; size 2^11 + 1 goes to float64.  Both Gram
    matrices equal the Python-integer ones, and the entries hold 2^24
    exactly, where float32's spacing becomes 2."""
    products = _spy_products(monkeypatch)
    r = Ring("gauss")
    for top, product in [(2**11, np.float32), (2**11 + 1, np.float64)]:
        assert (gram_bound((2, 2), top) <= FLOAT32_EXACT) == (product == np.float32)
        re = np.array([[top, top], [top, 1 - top]], dtype=np.int64)
        im = np.array([[top, -top], [-top, top]], dtype=np.int64)
        c = Components(re, im, r)
        c = c.T if transpose else c
        products.clear()
        got = c.gram()
        assert products == [product]
        exact = Components(c.re.astype(object), c.im.astype(object), r).gram()
        for a, b in zip(got, exact):
            assert a.dtype == np.int64 and np.array_equal(a, b)
        assert got[0][0, 0] == 4 * top * top


def _realified_rank(re, im, p):
    """Rank over GF(p^2) as half the rank over GF(p) of [[re, -im], [im, re]],
    the matrix of the same map on GF(p)-coordinates, computed by sympy."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    big = np.block([[re, -im], [im, re]]) % p
    return DomainMatrix.from_list(big.tolist(), GF(p)).rank() // 2


@st.composite
def _tall_matrices(draw, lo, hi):
    """(re, im) with m > 2n rows whose leading 2n rows have rank below n
    (rows combined from fewer than n drawn rows) or rank n (the identity
    among them), and whose remaining rows are drawn, the identity among
    them when the leading rows fall short and a flag says so."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2 * n + 1, 2 * n + 4))
    row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    rows = lambda k: np.array(draw(st.lists(row, min_size=k, max_size=k)),
                              dtype=np.int64).reshape(k, n)
    head_full = draw(st.booleans())
    re, im = rows(m), rows(m)
    if head_full:
        at = draw(st.permutations(range(2 * n)))[:n]
        re[at], im[at] = np.eye(n, dtype=np.int64), 0
    else:
        k = draw(st.integers(0, n - 1))
        basis_re, basis_im = rows(k), rows(k)
        cre, cim = rows(2 * n)[:, :k], rows(2 * n)[:, :k]
        re[:2 * n] = cre @ basis_re - cim @ basis_im
        im[:2 * n] = cre @ basis_im + cim @ basis_re
        if draw(st.booleans()) and m - 2 * n >= n:
            re[2 * n:3 * n], im[2 * n:3 * n] = np.eye(n, dtype=np.int64), 0
    return re, im, head_full


@pytest.mark.parametrize("ring", ["gf:3", "gf:7", "gauss", "gaussq"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_from_a_leading_block(ring, data):
    """On m > 2n rows, mat_rank eliminates the leading 2n rows alone when
    they have rank n, and the whole matrix otherwise; either way it equals
    sympy's rank over GF(p) of the realified matrix, or the fraction-free
    rank in characteristic 0."""
    r = Ring(ring)
    lo, hi = (0, r.char - 1) if r.char else (-3, 3)
    re, im, head_full = data.draw(_tall_matrices(lo, hi))
    m, n = re.shape
    rows = _exact(re, im, r)
    if r.char:
        want = _realified_rank(re, im, r.char)
        head = _realified_rank(re[:2 * n], im[:2 * n], r.char)
    else:
        want = rank_fraction_free(_exact(re, im, Ring("gauss")))
        head = rank_fraction_free(_exact(re[:2 * n], im[:2 * n], Ring("gauss")))
    assert (head == n) == head_full
    if ring == "gaussq":
        rows[-1] = [x / r.el(3) for x in rows[-1]]
    eliminated = []
    eliminate = exactalg._eliminate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_eliminate", lambda c: eliminated.append(len(c.re)) or eliminate(c))
        assert mat_rank(Components.of(rows, r)) == want
    assert eliminated == ([2 * n] if head_full else [2 * n, m])
