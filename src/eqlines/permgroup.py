"""Permutations of finite point sets and permutation groups.

Groups are stored as generators.  Exact order, membership and
transitivity degrees all come from one deterministic stabilizer chain
(a base and strong generating set; sympy.combinatorics does the
Schreier-Sims bookkeeping), built lazily on first use and cached on the
group.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from sympy.combinatorics import Permutation as _SymPerm
from sympy.combinatorics.perm_groups import PermutationGroup as _SymGroup


class PermError(ValueError):
    pass


class Permutation:
    """Permutation of {0, ..., n-1} in image-array form."""

    __slots__ = ("img",)

    def __init__(self, images):
        img = np.asarray(images, dtype=np.int32)
        n = img.size
        if n == 0 or not np.array_equal(np.sort(img), np.arange(n)):
            raise PermError("images do not form a bijection")
        img = img.copy()
        img.setflags(write=False)
        self.img = img

    @property
    def n(self) -> int:
        return self.img.size

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(np.arange(n))

    @staticmethod
    def from_cycles(n: int, *cycles) -> "Permutation":
        img = np.arange(n)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        return Permutation(img)

    def __call__(self, point: int) -> int:
        return int(self.img[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a * b)(x) = a(b(x))
        return Permutation(self.img[other.img])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int32)
        inv[self.img] = np.arange(self.n)
        return Permutation(inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.img, np.arange(self.n)))

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        seen = np.zeros(self.n, dtype=bool)
        transpositions = 0
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = int(self.img[v])
                length += 1
            transpositions += length - 1
        return transpositions % 2

    def as_list(self) -> list[int]:
        return [int(v) for v in self.img]

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.img, other.img)

    def __hash__(self):
        return hash(self.img.tobytes())

    def __repr__(self):
        return f"Permutation({self.as_list()})"


class PermGroup:
    """Permutation group on {0, ..., n-1} given by generators."""

    def __init__(self, generators: Sequence[Permutation], n: int | None = None):
        gens = list(generators)
        if n is None:
            if not gens:
                raise PermError("need n for an empty generating set")
            n = gens[0].n
        for g in gens:
            if g.n != n:
                raise PermError("generators act on different point sets")
        self.n = n
        self.generators = [g for g in gens if not g.is_identity()]
        self._sym: _SymGroup | None = None

    def _group(self) -> _SymGroup:
        if self._sym is None:
            if not self.generators:
                self._sym = _SymGroup([_SymPerm(list(range(self.n)))])
            else:
                self._sym = _SymGroup([_SymPerm(g.as_list()) for g in self.generators])
            self._sym.schreier_sims()
        return self._sym

    def order(self) -> int:
        if not self.generators:
            return 1
        return int(self._group().order())

    def contains(self, g: Permutation) -> bool:
        if g.n != self.n:
            raise PermError("point-set mismatch")
        if g.is_identity():
            return True
        if not self.generators:
            return False
        return bool(self._group().contains(_SymPerm(g.as_list()), strict=True))

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the point set, each orbit sorted, ordered by
        smallest element."""
        parent = np.arange(self.n)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for a in range(self.n):
                ra, rb = find(a), find(int(g.img[a]))
                if ra != rb:
                    parent[ra] = rb
        buckets: dict[int, list[int]] = {}
        for a in range(self.n):
            buckets.setdefault(find(a), []).append(a)
        return sorted(buckets.values(), key=lambda o: o[0])

    def orbit_sizes(self) -> list[int]:
        return sorted(len(o) for o in self.orbits())

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def is_k_transitive(self, k: int) -> bool:
        """True iff the action on ordered k-tuples of distinct points is
        transitive.

        Read off the cached stabilizer chain: with base b_0, b_1, ...,
        the basic orbit D_i is the orbit of b_i under the pointwise
        stabilizer G^(i) of b_0, ..., b_{i-1}, and G is k-transitive iff
        |D_i| = n - i for every i < k.  A level past the end of the base
        has a trivial stabilizer and counts as an orbit of size 1.

        Proof, by induction on k: G is k-transitive iff G is transitive
        and the stabilizer G_x of a point x is (k-1)-transitive on the
        other n - 1 points.  Take x = b_0: |D_0| = n says G is
        transitive, and G_{b_0} = G^(1) has the basic orbits D_1, D_2, ...
        on those n - 1 points.
        """
        if k < 1 or k > self.n:
            raise PermError("need 1 <= k <= n")
        if not self.generators:
            return self.n == 1
        sizes = [len(o) for o in self._group().basic_orbits]
        return all((sizes[i] if i < len(sizes) else 1) == self.n - i
                   for i in range(k))

    def transitivity_degree(self, cap: int = 8) -> int:
        """Largest k <= cap with a k-transitive action (0 if intransitive)."""
        t = 0
        while t < min(cap, self.n) and self.is_k_transitive(t + 1):
            t += 1
        return t


def subgroup_index(g: PermGroup, h: PermGroup) -> int:
    """Exact index [g : h]; raises with the offending generator if h is not
    contained in g."""
    if g.n != h.n:
        raise PermError("point-set mismatch")
    for gen in h.generators:
        if not g.contains(gen):
            raise PermError(f"not a subgroup: generator {gen.as_list()} missing")
    og, oh = g.order(), h.order()
    if og % oh:
        raise PermError("order does not divide; inconsistent groups")
    return og // oh


def iota_embed(pi: Permutation, sigma: Permutation) -> Permutation:
    """Product-action embedding (i, j) -> (pi(i), sigma(j)) on the row-major
    index set [d] x [d]."""
    if pi.n != sigma.n:
        raise PermError("size mismatch")
    d = pi.n
    img = np.empty(d * d, dtype=np.int32)
    for i in range(d):
        for j in range(d):
            img[i * d + j] = pi.img[i] * d + sigma.img[j]
    return Permutation(img)
