"""Construction of d^2-vector equiangular systems from (modular) Hadamard
matrices, verification of the defining axioms, the closed-form Gram matrix,
the induced order-d^2 sign matrix, and derived invariants.

The construction: given a sign matrix H of order d that is (modular)
Hadamard for the ring characteristic, with column h_j, the vectors are

    x_{ij} = h_j o (1 + z e_i),   z = -2(1 + i),

indexed row-major by (i, j) in [d] x [d].  Off-diagonal inner products all
lie in {+-4, +-4i}; we track them as exponents t with (x_u, x_v) = 4 i^t.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactalg import (
    Components,
    Ring,
    RingElement,
    RingSpec,
    component_dtype,
    mat_rank,
)
from .hadamard import (
    DEFAULT_ORDER_CAP,
    OrderCapError,
    SignMatrix,
    check_modular_hadamard,
    parse_sign_matrix,
    render_sign_matrix,
)
from .primes import is_prime, primes_up_to

# canonical integer values of the three defining constants
A_INT, B_INT, C_INT = 12, 16, 96

# largest bound applicable_primes sieves up to (a bool array of this size)
MAX_PRIME_BOUND = 10**7


class SicError(ValueError):
    pass


# phase exponent of the closed-form Gram entry, selected by the sign pair
# (H_ij*H_il, H_kj*H_kl); indexed by ((1-s)//2) so row/col 0 means +1
_PHI_EXP = np.array([[2, 1], [3, 0]], dtype=np.int8)


def gram_phase_matrix(h: SignMatrix) -> np.ndarray:
    """Closed-form exponent matrix T over X x X (row-major X = [d]^2) with
    (x_u, x_v) = 4 i^T[u, v] for u != v, and 0 on the diagonal."""
    a = h.array.astype(np.int8)
    d = h.d
    # ss[i, j, l] = H_ij * H_il; t[i,j,k,l] = phi(H_ij H_il, H_kj H_kl)
    ss = a[:, :, None] * a[:, None, :]
    idx1 = (1 - ss) // 2  # 0 for +1, 1 for -1
    t = _PHI_EXP[idx1[:, None], idx1[None, :]].transpose(0, 2, 1, 3)
    ii = np.arange(d)
    delta = (ii[:, None] == ii[None, :]).astype(np.int8)
    t += 2 * delta[:, None, :, None]  # delta_ik
    t += 2 * delta[None, :, None, :]  # delta_jl
    t %= 4
    t = t.reshape(d * d, d * d)
    np.fill_diagonal(t, 0)
    return t


@dataclass
class SicSystem:
    d: int
    ring: Ring
    vectors: Components  # row u = i d + j is x_ij; the arrays are read-only
    source: SignMatrix

    def __post_init__(self):
        self.vectors.re.flags.writeable = False
        self.vectors.im.flags.writeable = False

    def index(self, i: int, j: int) -> int:
        return i * self.d + j

    @cached_property
    def phases(self) -> np.ndarray:
        """Phase table read off the vectors themselves: T[u, v] in Z/4 with
        (x_u, x_v) = 4 i^T[u, v] for u != v, and 0 on the diagonal.
        Independent of the closed form (no reference to the source sign
        matrix); raises SicError if some off-diagonal inner product is not
        4 times a power of i.  The table is read-only, as the vectors are."""
        n = self.d * self.d
        gre, gim = self.vectors.gram()
        t = np.full((n, n), -1, dtype=np.int8)
        for k in range(4):
            val = self.ring.el(4) * self.ring.i_power(k)
            t[(gre == int(val.re)) & (gim == int(val.im))] = k
        np.fill_diagonal(t, 0)
        if (t < 0).any():
            u, v = np.argwhere(t < 0)[0]
            raise SicError(f"inner product at ({u}, {v}) is not 4 i^k")
        t.flags.writeable = False
        return t

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "ring": str(self.ring.spec),
            "source": render_sign_matrix(self.source),
            "vectors": np.stack([self.vectors.re, self.vectors.im], -1).tolist(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SicSystem":
        """Rebuild a saved system; raises SicError (or RingError, for a bad
        ring or a component outside it) when the data is malformed."""
        keys = ("d", "ring", "source", "vectors")
        if not isinstance(data, dict) or not all(k in data for k in keys):
            raise SicError(f"a saved system needs the keys {', '.join(keys)}")
        ring = Ring(RingSpec.parse(str(data["ring"])))
        source = parse_sign_matrix(str(data["source"]))
        d = source.d
        vectors = np.array(data["vectors"], dtype=object)
        if data["d"] != d or vectors.shape != (d * d, d, 2):
            raise SicError(
                f"a source of order {d} needs d = {d} and {d * d} vectors of "
                f"{d} (re, im) pairs; got d = {data['d']!r} and shape {vectors.shape}")
        return SicSystem(d, ring, _saved_components(vectors, ring), source)


def _saved_components(values: np.ndarray, ring: Ring) -> Components:
    """The (re, im) pairs of a (rows, columns, 2) object array of saved
    values as components over ring, checked and reduced as ring.el and
    Components.of would do it.  Values that are all int64 integers, as
    sic build writes them, are checked and reduced with numpy; any other
    value sends the array through ring.el one component at a time, which
    raises RingError at the first value that is not a component."""
    ints = None
    if all(type(v) is int for v in values.flat):
        try:
            ints = values.astype(np.int64)
        except OverflowError:
            pass
    if ints is None:
        rows = [[ring.el(re, im) for re, im in vec] for vec in values]
        return Components.of(rows, ring)
    if ring.char:
        ints %= ring.char
    top = max(int(ints.max(initial=0)), -int(ints.min(initial=0)))
    dtype = component_dtype(ring, ints.shape[:2], top)
    return Components(ints[..., 0].astype(dtype), ints[..., 1].astype(dtype), ring)


def construct_sic(h: SignMatrix, ring: Ring | RingSpec | str) -> SicSystem:
    """Build the d^2 vectors x_{ij} = h_j o (1 + z e_i) with provenance:
    x_ij[t] = H[t, j], except x_ij[i] = (1 + z) H[i, j] = (-1 - 2i) H[i, j]."""
    if not isinstance(ring, Ring):
        ring = Ring(ring)
    d = h.d
    if ring.char:
        if (d - 8) % ring.char != 0:
            raise SicError(f"{d} != 8 (mod {ring.char})")
    else:
        # char 0 makes the congruence d = 8 literal
        if d != 8:
            raise SicError(f"over characteristic 0 the construction needs d = 8, got {d}")
    cert = check_modular_hadamard(h, ring.char)
    if not cert.valid:
        raise SicError(
            f"matrix is not Hadamard mod {ring.char}: witness {cert.failure_witness}"
        )
    # components are at most 2 in absolute value before reduction
    a = h.array.astype(component_dtype(ring, (d * d, d), 2))
    re = np.broadcast_to(a.T, (d, d, d)).copy()  # re[i, j, t] = H[t, j]
    im = np.zeros_like(re)
    ii = np.arange(d)
    re[ii, :, ii] = -a
    im[ii, :, ii] = -2 * a
    if ring.char:
        re %= ring.char
        im %= ring.char
    vectors = Components(re.reshape(d * d, d), im.reshape(d * d, d), ring)
    return SicSystem(d, ring, vectors, h)


@dataclass
class SicVerdict:
    passed: bool
    a: RingElement
    b: RingElement
    c: RingElement
    a_int: int = A_INT
    b_int: int = B_INT
    c_int: int = C_INT
    failed_axiom: str | None = None
    witness: tuple | None = None


def verify_sic(s: SicSystem) -> SicVerdict:
    """Check the four defining axioms exactly, for every ring: one Gram
    matrix and one rank on the vectors' components, int64 (and float64
    BLAS for the Gram products) only where a bound proves it exact."""
    ring, d, x = s.ring, s.d, s.vectors  # row u of x is x_u
    a_el, b_el, c_el = ring.el(A_INT), ring.el(B_INT), ring.el(C_INT)
    if (a_el * a_el) == b_el:
        raise SicError("degenerate constants: a^2 = b in this ring")
    a, b, c = (int(el.re) for el in (a_el, b_el, c_el))

    def fail(axiom, witness):
        return SicVerdict(False, a_el, b_el, c_el, failed_axiom=axiom, witness=witness)

    gre, gim = x.gram()
    bad = np.flatnonzero((np.diag(gre) != a) | (np.diag(gim) != 0))
    if len(bad):
        return fail("a", (int(bad[0]),))
    # (x_v, x_u) = conj (x_u, x_v), so their product is the norm gre^2 + gim^2
    gre *= gre
    gim *= gim
    gre += gim
    if ring.char:
        gre %= ring.char
    np.fill_diagonal(gre, b)
    bad = np.argwhere(gre != b)
    if len(bad):
        return fail("b", tuple(int(w) for w in bad[0]))
    # sum_u x_u x_u* is the conjugate of the Gram matrix of the coordinates
    fre, fim = x.T.gram()
    bad = np.argwhere((fre != c * np.eye(d, dtype=np.int64)) | (fim != 0))
    if len(bad):
        return fail("c", tuple(int(w) for w in bad[0]))
    if mat_rank(x) != d:
        return fail("d", ())
    return SicVerdict(True, a_el, b_el, c_el)


def build_tilde(h: SignMatrix) -> SignMatrix:
    """Order-d^2 sign matrix M[(i,j),(k,l)] = H_kj * H_il, row-major indices."""
    d = h.d
    a = h.array.astype(np.int8)
    t = np.einsum("kj,il->ijkl", a, a)
    return SignMatrix.from_array(t.reshape(d * d, d * d))


def tensor_gram_check(s: SicSystem) -> bool:
    """Verify H_ij H_kl (x_ij, x_kl)^2 = 16 Ht + 128 I in the ring, where Ht
    is the induced order-d^2 sign matrix.  Uses (x(x)x, y(x)y) = (x,y)^2, so
    no explicit tensors are formed."""
    d = s.d
    hv = s.source.array.reshape(d * d).astype(np.int64)  # H_ij over row-major u
    t = s.phases
    ht = build_tilde(s.source).array.astype(np.int64)
    # squared inner products: diagonal 144, off-diagonal 16 * (-1)^t
    sq = 16 * np.where(t % 2 == 0, 1, -1).astype(np.int64)
    np.fill_diagonal(sq, A_INT * A_INT)
    lhs = hv[:, None] * hv[None, :] * sq
    rhs = 16 * ht + 128 * np.eye(d * d, dtype=np.int64)
    diff = lhs - rhs
    if s.ring.char:
        diff = diff % s.ring.char
    return not diff.any()


def triple_product(s: SicSystem, u, v, w) -> RingElement:
    """(x_u, x_v)(x_v, x_w)(x_w, x_u) for distinct index pairs u, v, w."""
    iu = s.index(*u) if isinstance(u, tuple) else u
    iv = s.index(*v) if isinstance(v, tuple) else v
    iw = s.index(*w) if isinstance(w, tuple) else w
    if len({iu, iv, iw}) != 3:
        raise SicError("triple product needs three distinct indices")
    t = s.phases
    e = int(t[iu, iv]) + int(t[iv, iw]) + int(t[iw, iu])
    return s.ring.el(64) * s.ring.i_power(e)


def applicable_primes(d: int, bound: int = 1000) -> tuple[list[int], bool]:
    """Primes p = 3 (mod 4) with p | (d - 8), up to bound <= MAX_PRIME_BOUND.
    For d = 8 every such prime divides 0: returns them all up to bound with
    all_flag set."""
    if d < 1 or bound < 3:
        raise SicError("need d >= 1 and bound >= 3")
    if bound > MAX_PRIME_BOUND:
        raise SicError(f"bound {bound} exceeds the largest bound {MAX_PRIME_BOUND}")
    all_flag = d == 8
    primes = [
        p
        for p in primes_up_to(bound)
        if p % 4 == 3 and (all_flag or (d - 8) % p == 0)
    ]
    return primes, all_flag


def constructible_orders(n_max: int) -> dict[int, str]:
    """Orders <= n_max of honest Hadamard matrices the toolkit can synthesize
    from sylvester / paley(prime q) / kron, with a replayable recipe each.
    First recipe found in canonical enumeration order wins."""
    best: dict[int, str] = {}
    k = 0
    while 2**k <= n_max:
        best.setdefault(2**k, f"sylvester:{k}")
        k += 1
    primes = primes_up_to(n_max - 1)
    for q in primes:
        if q % 4 == 3 and q + 1 <= n_max:
            best.setdefault(q + 1, f"paley1:{q}")
    for q in primes:
        if q % 4 == 1 and 2 * (q + 1) <= n_max:
            best.setdefault(2 * (q + 1), f"paley2:{q}")
    changed = True
    while changed:
        changed = False
        orders = sorted(best)
        for a in orders:
            for b in orders:
                ab = a * b
                if 1 < a and 1 < b and ab <= n_max and ab not in best:
                    best[ab] = f"kron:{best[a]},{best[b]}"
                    changed = True
    return best


def scan_dimensions(p: int, n_max: int, cap: int = DEFAULT_ORDER_CAP) -> list[tuple[int, str]]:
    """All d <= n_max with d = 8 (mod p) for which an honest Hadamard matrix
    can be synthesized; each entry carries a replayable recipe."""
    if p % 4 != 3 or not is_prime(p):
        raise SicError(f"need a prime p = 3 (mod 4), got {p}")
    if n_max > cap:
        raise OrderCapError(f"scan bound {n_max} exceeds cap {cap}")
    orders = constructible_orders(n_max)
    out = []
    for d in sorted(orders):
        if (d - 8) % p == 0:
            out.append((d, orders[d]))
    return out
