"""Generation, ingestion and certification of (modular) Hadamard matrices.

Sign matrices are {+1, -1} matrices; a certificate records whether
H^T H = d I holds exactly over the integers (modulus 0) or modulo an odd
prime.

Paley conventions (kept stable because regression fixtures depend on them):

  * Paley I (q = 3 mod 4, order q+1): H = I + S with
    S = [[0, 1^T], [-1, Q]], where Q is the Jacobsthal matrix
    Q[a][b] = chi(b - a) on F_q and chi the quadratic-residue character.
    First row is all +1, first column is +1 then -1's.
  * Paley II (q = 1 mod 4, order 2(q+1)): with the symmetric conference
    matrix C = [[0, 1^T], [1, Q]],
    H = C x [[1,1],[1,-1]] + I x [[1,-1],[-1,-1]]  (x = Kronecker).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .primes import is_prime

DEFAULT_ORDER_CAP = 256


class HadamardError(ValueError):
    pass


class OrderCapError(HadamardError):
    pass


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Square matrix with entries in {+1, -1}, held as one read-only int8
    array (a copy of the array it is built from).  Compared and hashed by
    identity."""

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array)
        if a.size == 0:
            raise HadamardError("empty matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise HadamardError("matrix must be square")
        # checked before the int8 cast, so that 257 cannot wrap to 1
        bad = a[(a != 1) & (a != -1)]
        if bad.size:
            raise HadamardError(f"entry {bad[0].item()!r} is not +-1")
        a = a.astype(np.int8)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def d(self) -> int:
        return self.array.shape[0]

    @staticmethod
    def from_array(a) -> "SignMatrix":
        return SignMatrix(a)

    def trace(self) -> int:
        return int(np.trace(self.array))


@dataclass(frozen=True)
class HadamardCertificate:
    modulus: int
    valid: bool
    # (col_a, col_b, inner_product) for the first violated congruence
    failure_witness: tuple[int, int, int] | None = None


def _check_cap(order: int, cap: int):
    if order > cap:
        raise OrderCapError(f"order {order} exceeds cap {cap}")


def sylvester(k: int, cap: int = DEFAULT_ORDER_CAP) -> SignMatrix:
    """Order-2^k matrix by iterated doubling [[H, H], [H, -H]]."""
    if k < 0:
        raise HadamardError("k must be >= 0")
    _check_cap(2**k, cap)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return SignMatrix.from_array(h)


def _jacobsthal(q: int) -> np.ndarray:
    squares = {(x * x) % q for x in range(1, q)}
    chi = np.zeros(q, dtype=np.int8)
    for x in range(1, q):
        chi[x] = 1 if x in squares else -1
    idx = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    return chi[idx]


def paley(q: int, kind: str, cap: int = DEFAULT_ORDER_CAP) -> SignMatrix:
    """Paley I/II Hadamard matrix from the quadratic-residue character on F_q."""
    if not is_prime(q) or q == 2:
        raise HadamardError(f"{q} is not an odd prime (prime powers unsupported)")
    Q = None
    if kind == "I":
        if q % 4 != 3:
            raise HadamardError(f"Paley I needs q = 3 (mod 4), got {q}")
        _check_cap(q + 1, cap)
        Q = _jacobsthal(q)
        n = q + 1
        m = np.empty((n, n), dtype=np.int8)
        m[0, :] = 1
        m[1:, 0] = -1
        m[1:, 1:] = Q + np.eye(q, dtype=np.int8)
        return SignMatrix.from_array(m)
    if kind == "II":
        if q % 4 != 1:
            raise HadamardError(f"Paley II needs q = 1 (mod 4), got {q}")
        _check_cap(2 * (q + 1), cap)
        Q = _jacobsthal(q)
        n = q + 1
        c = np.zeros((n, n), dtype=np.int8)
        c[0, 1:] = 1
        c[1:, 0] = 1
        c[1:, 1:] = Q
        k2 = np.array([[1, 1], [1, -1]], dtype=np.int8)
        m2 = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        h = np.kron(c, k2) + np.kron(np.eye(n, dtype=np.int8), m2)
        return SignMatrix.from_array(h)
    raise HadamardError(f"unknown Paley kind {kind!r}")


def kron_product(a: SignMatrix, b: SignMatrix, cap: int = DEFAULT_ORDER_CAP) -> SignMatrix:
    _check_cap(a.d * b.d, cap)
    return SignMatrix.from_array(np.kron(a.array, b.array))


def check_modular_hadamard(m: SignMatrix, modulus: int) -> HadamardCertificate:
    """Certify H^T H = d I over Z (modulus 0) or mod an odd prime."""
    if modulus != 0 and (modulus == 2 or not is_prime(modulus)):
        raise HadamardError(f"modulus must be 0 or an odd prime, got {modulus}")
    h = m.array.astype(np.int64)
    g = h.T @ h
    d = m.d
    off = g - d * np.eye(d, dtype=np.int64)
    if modulus:
        off = off % modulus
    bad = np.argwhere(off != 0)
    if len(bad) == 0:
        return HadamardCertificate(modulus, True)
    i, j = (int(v) for v in bad[0])
    return HadamardCertificate(modulus, False, (i, j, int(g[i, j])))


def render_sign_matrix(m: SignMatrix) -> str:
    text = np.full((m.d, m.d + 1), b"\n", dtype="S1")
    text[:, :-1] = np.where(m.array > 0, b"+", b"-")
    return text.tobytes().decode()[:-1]


def parse_sign_matrix(text: str) -> SignMatrix:
    """Rows of '+' and '-', one a line; whitespace around them is ignored."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise HadamardError("empty sign-matrix text")
    if len({len(ln) for ln in lines}) != 1:
        raise HadamardError("ragged lines in sign-matrix text")
    codes = np.array(lines).view(np.uint32).reshape(len(lines), -1)
    illegal = codes[(codes != ord("+")) & (codes != ord("-"))]
    if illegal.size:
        raise HadamardError(f"illegal character {chr(illegal[0])!r}")
    return SignMatrix(np.where(codes == ord("+"), 1, -1))


def load_sign_matrix(path: str) -> SignMatrix:
    with open(path) as fh:
        return parse_sign_matrix(fh.read())


def from_recipe(spec: str, cap: int = DEFAULT_ORDER_CAP) -> SignMatrix:
    """Replay a generator recipe: sylvester:k, paley1:q, paley2:q,
    kron:<spec>,<spec>, or a path to a .had file."""
    spec = spec.strip()
    if spec.startswith("sylvester:"):
        return sylvester(int(spec.split(":", 1)[1]), cap)
    if spec.startswith("paley1:"):
        return paley(int(spec.split(":", 1)[1]), "I", cap)
    if spec.startswith("paley2:"):
        return paley(int(spec.split(":", 1)[1]), "II", cap)
    if spec.startswith("kron:"):
        rest = spec[5:]
        # first comma split whose left half parses wins; a left half that
        # parses but exceeds the cap ends the search with its cap error
        positions = [i for i, ch in enumerate(rest) if ch == ","]
        for pos in positions:
            left, right = rest[:pos], rest[pos + 1 :]
            try:
                a = from_recipe(left, cap)
            except OrderCapError:
                raise
            except (HadamardError, ValueError):
                continue
            return kron_product(a, from_recipe(right, cap), cap)
        raise HadamardError(f"cannot parse kron recipe {spec!r}")
    if spec.endswith(".had") or os.path.sep in spec or os.path.exists(spec):
        m = load_sign_matrix(spec)
        _check_cap(m.d, cap)
        return m
    raise HadamardError(f"unknown matrix recipe {spec!r}")
