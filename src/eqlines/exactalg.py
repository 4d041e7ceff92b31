"""Exact arithmetic in conjugation rings and exact dense linear algebra.

A conjugation ring here is L = K(i) with i^2 = -1 and involution
a + bi -> a - bi.  Three instances are supported:

  * ``finite(p)``: F_{p^2} for a prime p with p = 3 (mod 4), so that t^2+1
    is irreducible over F_p; components are canonical residues in [0, p).
  * ``gaussian``: the Gaussian integers Z[i], components are Python ints
    (arbitrary precision, no overflow).
  * ``gaussian_fraction``: the Gaussian rationals Q(i), components are
    ``fractions.Fraction``.

Matrices over a ring are kept as (re, im) component arrays, on which the
sesquilinear Gram matrix (x, y) = x* y of the rows and the exact rank are
computed.  Over the Gaussian integers rank is taken over the fraction field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .primes import is_prime


class RingError(ValueError):
    """Invalid ring specification or unsupported ring operation."""


FINITE = "finite"
GAUSSIAN = "gaussian"
GAUSSIAN_FRACTION = "gaussian_fraction"


@dataclass(frozen=True)
class RingSpec:
    """Descriptor for a supported conjugation ring."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == FINITE:
            p = self.p
            if p is None or not is_prime(p):
                raise RingError(f"{p!r} is not prime")
            if p == 2:
                raise RingError("characteristic 2 is not supported")
            if p % 4 == 1:
                raise RingError(f"t^2+1 splits mod {p}; need p = 3 (mod 4)")
        elif self.kind in (GAUSSIAN, GAUSSIAN_FRACTION):
            if self.p is not None:
                raise RingError("p applies only to finite rings")
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")

    def __str__(self):
        if self.kind == FINITE:
            return f"gf:{self.p}"
        return "gauss" if self.kind == GAUSSIAN else "gaussq"

    @staticmethod
    def parse(text: str) -> "RingSpec":
        text = text.strip()
        if text.startswith("gf:"):
            try:
                p = int(text[3:])
            except ValueError:
                raise RingError(f"bad ring spec {text!r}")
            return RingSpec(FINITE, p)
        if text == "gauss":
            return RingSpec(GAUSSIAN)
        if text == "gaussq":
            return RingSpec(GAUSSIAN_FRACTION)
        raise RingError(f"bad ring spec {text!r}")


class RingElement:
    """Element re + im*i of a conjugation ring.  Immutable."""

    __slots__ = ("re", "im", "ring")

    def __init__(self, re, im, ring: "Ring"):
        self.re = re
        self.im = im
        self.ring = ring

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring.spec != self.ring.spec:
            raise RingError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        return self.ring.el(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        self._check(other)
        return self.ring.el(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return self.ring.el(-self.re, -self.im)

    def __mul__(self, other):
        self._check(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return self.ring.el(a * c - b * d, a * d + b * c)

    def conj(self):
        return self.ring.el(self.re, -self.im)

    def norm(self):
        """conj(x) * x, an element of the base ring K (returned as a scalar)."""
        n = self.re * self.re + self.im * self.im
        if self.ring.spec.kind == FINITE:
            n %= self.ring.spec.p
        return n

    def inv(self):
        ring = self.ring
        if self.is_zero():
            raise RingError("inverse of zero")
        kind = ring.spec.kind
        if kind == FINITE:
            p = ring.spec.p
            ninv = pow(self.norm(), p - 2, p)
            return ring.el(self.re * ninv, -self.im * ninv)
        if kind == GAUSSIAN:
            if self.norm() != 1:
                raise RingError("non-unit has no inverse in the Gaussian integers")
            return ring.el(self.re, -self.im)
        n = self.norm()
        return ring.el(Fraction(self.re, 1) / n, -Fraction(self.im, 1) / n)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring.spec == other.ring.spec
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im, self.ring.spec))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}+{self.im}i"


class Ring:
    """Handle for a conjugation ring: constants, coercion, characteristic."""

    def __init__(self, spec: RingSpec):
        if not isinstance(spec, RingSpec):
            spec = RingSpec.parse(spec)
        self.spec = spec
        self.char = spec.p if spec.kind == FINITE else 0
        self.zero = self.el(0, 0)
        self.one = self.el(1, 0)
        self.i = self.el(0, 1)

    def _base(self, v):
        kind = self.spec.kind
        # int() and Fraction() take booleans as 1 and 0
        if isinstance(v, (bool, np.bool_)):
            raise RingError(f"{v!r} is not a component")
        if kind == GAUSSIAN_FRACTION:
            try:
                return Fraction(v)
            except (TypeError, ValueError):
                raise RingError(f"{v!r} is not a rational component")
        try:
            iv = int(v)
        except (TypeError, ValueError):
            iv = None
        if iv is None or iv != v:
            raise RingError(f"{v!r} is not an integer component")
        return iv % self.spec.p if kind == FINITE else iv

    def el(self, re, im=0) -> RingElement:
        return RingElement(self._base(re), self._base(im), self)

    def i_power(self, t: int) -> RingElement:
        return (self.one, self.i, -self.one, -self.i)[t % 4]

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Ring({self.spec})"


def exact_dtype(bound: int):
    """np.int64 when no value a computation forms exceeds ``bound`` in
    absolute value, so int64 arithmetic is exact; beyond it object dtype,
    whose Python integers are exact at any size."""
    return np.int64 if bound < 2**63 else object


# float64 holds every integer of absolute value at most 2^53 exactly
FLOAT_EXACT = 2**53


def gram_bound(shape: tuple[int, int], top: int) -> int:
    """Bound on every partial sum of a Gram entry of an m x n matrix, or of
    its transpose, with components at most ``top`` in absolute value.  An
    entry of either Gram matrix sums k = 2 max(m, n) products of two
    components (re re + im im, or re im - im re), each at most top^2 in
    absolute value; any sum of some of these products, in any order, is
    therefore at most k top^2 in absolute value."""
    return 2 * max(shape) * top ** 2


def component_dtype(ring: Ring, shape: tuple[int, int], top: int):
    """exact_dtype for the integer components of an m x n matrix over ring,
    none above ``top`` in absolute value; Components.of and
    sic.construct_sic both size their arrays by it.  A Gram entry is at
    most gram_bound(shape, top).  Over GF(p^2) components are reduced, so
    top is p - 1 whatever is given, and a reduced entry's norm and an
    elimination update stay below 4 (p - 1)^2; in char 0 a norm is at most
    2 gram_bound(shape, top)^2."""
    if ring.char:
        top = ring.char - 1
        return exact_dtype(max(gram_bound(shape, top), 4 * top ** 2))
    return exact_dtype(2 * gram_bound(shape, top) ** 2)


@dataclass(frozen=True)
class Components:
    """(re, im) component arrays of a matrix over one ring: the one form in
    which matrices are stored and Gram matrices and ranks computed, for every
    ring.  They are residues in [0, p) over GF(p^2), integers in
    characteristic 0, or Fractions when some Q(i) entry is not integral;
    integers are int64 where component_dtype admits them, else Python
    integers."""

    re: np.ndarray
    im: np.ndarray
    ring: Ring

    @classmethod
    def of(cls, rows: Sequence[Sequence[RingElement]], ring: Ring) -> "Components":
        re = [[x.re for x in row] for row in rows]
        im = [[x.im for x in row] for row in rows]
        flat = [v for part in (re, im) for row in part for v in row]
        if not all(v.denominator == 1 for v in flat):
            return cls(np.array(re, dtype=object), np.array(im, dtype=object), ring)
        dtype = component_dtype(ring, (len(re), len(re[0])), int(max(map(abs, flat))))
        re, im = ([[int(v) for v in row] for row in part] for part in (re, im))
        return cls(np.array(re, dtype=dtype), np.array(im, dtype=dtype), ring)

    @property
    def T(self) -> "Components":
        return Components(self.re.T, self.im.T, self.ring)

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) of G[a, b] = (row_a, row_b) = sum_t conj(row_a[t]) row_b[t],
        reduced mod p over GF(p^2), in the components' dtype.

        int64 components whose gram_bound is at most 2^53 are multiplied in
        float64 BLAS, and the result is exact: each product and each partial
        sum that a classical matrix product forms, in whatever order and
        blocking and with or without fused multiply-add, is an integer of
        absolute value at most gram_bound <= 2^53, which float64 represents
        exactly, so no step rounds.  Other components are multiplied in
        their own dtype, int64 under component_dtype's bound and Python
        integers beyond it."""
        re, im = self.re, self.im
        in_float64 = False
        if re.dtype == np.int64:
            top = int(max(np.abs(re).max(initial=0), np.abs(im).max(initial=0)))
            in_float64 = gram_bound(re.shape, top) <= FLOAT_EXACT
        if in_float64:
            gre, gim = _gram_float64(re, im)
        else:
            gre = re @ re.T
            gre += im @ im.T
            gim = re @ im.T
            gim -= im @ re.T
        if self.ring.char:
            gre %= self.ring.char
            gim %= self.ring.char
        return gre, gim


# rows of the float64 Gram product held at once
_GRAM_ROWS = 256


def _gram_float64(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components.gram's two int64 products, unreduced, by one float64
    product per block of rows: row a of [re | im] times row b of [re | im]
    is gre[a, b], and times row b of [im | -re] it is gim[a, b].  Blocks of
    rows keep the float64 result small beside the two int64 arrays."""
    re, im = re.astype(np.float64), im.astype(np.float64)
    x = np.hstack([re, im])
    y = np.vstack([x, np.hstack([im, -re])])
    n = len(x)
    gre = np.empty((n, n), dtype=np.int64)
    gim = np.empty_like(gre)
    buf = np.empty((min(n, _GRAM_ROWS), 2 * n))
    for lo in range(0, n, _GRAM_ROWS):
        block = x[lo:lo + _GRAM_ROWS]
        f = np.matmul(block, y.T, out=buf[:len(block)])
        gre[lo:lo + len(block)] = f[:, :n]
        gim[lo:lo + len(block)] = f[:, n:]
    return gre, gim


def mat_rank(c: Components) -> int:
    """Exact rank; over the Gaussian integers, rank over the fraction field.

    Integer-preserving elimination, one array update per pivot: each row
    below the pivot row becomes pivot * row - f * (pivot row), reduced mod p
    over GF(p^2).  Over Q(i) this is Bareiss' elimination on Python integers
    (rows scaled by the lcm of their denominators): the update is divided
    by the previous pivot, exactly, because every entry is then a minor."""
    p = c.ring.char
    m, n = c.re.shape
    if p:
        re, im = c.re.copy(), c.im.copy()
    else:
        rows = np.hstack([c.re, c.im]).tolist()
        scales = [math.lcm(*(v.denominator for v in r)) for r in rows]
        both = np.array([[int(v * s) for v in r] for r, s in zip(rows, scales)], dtype=object)
        re, im = both[:, :n], both[:, n:]
    pr, pi = 1, 0  # previous pivot
    rank = col = 0
    while rank < m:
        nz = (re[rank:, col:] != 0) | (im[rank:, col:] != 0)
        live = np.flatnonzero(nz.any(axis=0))
        if not len(live):
            break
        col += int(live[0])
        r = rank + int(np.argmax(nz[:, live[0]]))
        re[[rank, r]] = re[[r, rank]]
        im[[rank, r]] = im[[r, rank]]
        a, b = re[rank, col], im[rank, col]
        xr, xi = re[rank + 1:, col:], im[rank + 1:, col:]
        fr, fi = re[rank + 1:, col, None], im[rank + 1:, col, None]
        br, bi = re[rank, col:], im[rank, col:]
        nr = a * xr - b * xi - fr * br + fi * bi
        ni = a * xi + b * xr - fr * bi - fi * br
        if p:
            nr %= p
            ni %= p
        else:
            nn = pr * pr + pi * pi
            nr, ni = (nr * pr + ni * pi) // nn, (ni * pr - nr * pi) // nn
            pr, pi = a, b
        re[rank + 1:, col:] = nr
        im[rank + 1:, col:] = ni
        rank += 1
        col += 1
    return rank


def _exact_div_gaussian(num: RingElement, den: RingElement) -> RingElement:
    """Exact division in Z[i]; raises if the quotient is not integral."""
    ring = num.ring
    q = num * den.conj()
    n = den.norm()
    if n == 0 or q.re % n or q.im % n:
        raise RingError("non-exact Gaussian division")
    return ring.el(q.re // n, q.im // n)


def rank_fraction_free(rows: Sequence[Sequence[RingElement]]) -> int:
    """Rank of a Gaussian-integer matrix, given as rows of elements, by
    integer-preserving (Bareiss) elimination on the elements; used as an
    independent cross-check of :func:`mat_rank`."""
    ring = rows[0][0].ring
    if ring.spec.kind != GAUSSIAN:
        raise RingError("fraction-free rank is defined for Gaussian integers")
    rows = [list(row) for row in rows]
    m = len(rows)
    n = len(rows[0])
    rank = 0
    col = 0
    prev = ring.one
    while rank < m and col < n:
        piv = None
        for r in range(rank, m):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, m):
            fr = rows[r][col]
            rows[r] = [
                _exact_div_gaussian(pivot * a - fr * b, prev)
                for a, b in zip(rows[r], rows[rank])
            ]
        prev = pivot
        rank += 1
        col += 1
    return rank
