"""Permutations of finite point sets and permutation groups.

Groups are stored as generators.  Exact order, membership and
transitivity degrees all come from one stabilizer chain (a base and
strong generating set), built lazily on first use and cached on the
group.

The chain is built by deterministic Schreier-Sims (Seress, *Permutation
Group Algorithms*, 2003, Ch. 4).  Level i holds a base point b_i, its
basic orbit under the strong generators that fix b_0, ..., b_{i-1}, and
a transversal: for each orbit point g one element u_g of the level's
group with u_g(b_i) = g.  Schreier's lemma says that the Schreier
generators u_{s g}^{-1} s u_g, over all orbit points g and level
generators s, generate the stabilizer of b_i, and the chain is complete
once every Schreier generator of every level sifts to the identity
through the levels below it.  A Schreier generator that does not is
added as a strong generator, which extends the orbits below, and the
check resumes at the level where its sift stopped.

Everything is done on int image arrays.  Transversal rows are only ever
appended, so a Schreier generator keeps its value; and the levels below
a level only grow, so one that sifted to the identity once is proven for
good.  Each level therefore sifts only its (orbit point, generator)
pairs not yet proven, as one numpy batch.

The same invariant lets a chain be grown.  A group made with a subgroup
(PermGroup's subgroup argument, generated by some of its generators)
starts its chain as a copy of the subgroup's completed chain, with every
pair proven, and adds only the generators the subgroup lacks; the check
then sifts just the pairs they bring.  A sandwich (analysis.sandwich_report)
searches its chain of four groups bottom-up, each search seeded with the
group below, so the seeds head each generator list and every chain above
iota(weak H)'s is grown so from the chain below it.  The seeds passed the
search's full color check, which certifies each inclusion; the sift in
subgroup_index is then trivially true, and only the index is news.
"""
from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np


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


# Largest number of image entries (pairs x points) sifted in one batch:
# it bounds the memory of a batch, and a batch stops the level's check at
# its first residue, so later pairs are not sifted against a chain that
# is about to grow.
_BATCH_ENTRIES = 1 << 14


class _Level:
    """One level of a stabilizer chain: base point, basic orbit and
    transversal, and which Schreier generators are proven."""

    def __init__(self, point: int, n: int):
        self.point = point
        self.orbit = np.array([point], dtype=np.intp)
        self.where = np.full(n, -1, dtype=np.intp)   # point -> orbit index
        self.where[point] = 0
        self.u = np.arange(n, dtype=np.intp)[None, :]   # row k: u_{orbit[k]}
        self.u_inv = self.u.copy()
        self.gens = np.empty(0, dtype=np.intp)   # indices of strong generators
        # proven[k, c]: the Schreier generator of (orbit[k], gens[c]) sifts
        # to the identity through the levels below
        self.proven = np.zeros((1, 0), dtype=bool)


class _StabChain:
    """Base and strong generating set of the group generated by ``gens``,
    non-identity image arrays on n points, and by ``start``, when given:
    the completed chain of a subgroup, which the new chain begins as a
    copy of.  Every Schreier generator that start has proven stays proven
    (see the module docstring), so only the pairs that gens add are
    sifted."""

    def __init__(self, gens: Sequence[np.ndarray], n: int, start: _StabChain | None = None):
        self.identity = np.arange(n, dtype=np.intp)
        if start is None:
            self.strong = np.empty((0, n), dtype=np.intp)
            self.strong_inv = np.empty((0, n), dtype=np.intp)
            self.levels: list[_Level] = []
        else:
            self.strong, self.strong_inv = start.strong.copy(), start.strong_inv.copy()
            self.levels = copy.deepcopy(start.levels)
        for g in gens:
            self._add_generator(np.asarray(g, dtype=np.intp))
        i = len(self.levels) - 1
        while i >= 0:
            residue = self._first_residue(i)
            if residue is None:
                i -= 1
            else:
                i = self._add_generator(residue)

    def _add_generator(self, g: np.ndarray) -> int:
        """Add a non-identity g as a strong generator, at the first level
        whose base point it moves (a new level if it fixes them all), and
        to every level above; returns that level."""
        depth = 0
        while depth < len(self.levels) and g[self.levels[depth].point] == self.levels[depth].point:
            depth += 1
        if depth == len(self.levels):
            self.levels.append(_Level(int(np.flatnonzero(g != self.identity)[0]), g.size))
        idx = len(self.strong)
        self.strong = np.vstack([self.strong, g])
        g_inv = np.empty_like(g)
        g_inv[g] = self.identity
        self.strong_inv = np.vstack([self.strong_inv, g_inv])
        for level in self.levels[:depth + 1]:
            level.gens = np.append(level.gens, idx)
            level.proven = np.hstack([level.proven,
                                      np.zeros((len(level.orbit), 1), dtype=bool)])
            self._extend_orbit(level, level.gens[-1:])
        return depth

    def _extend_orbit(self, level: _Level, new_gens: np.ndarray):
        """Close the basic orbit under the level's generators, after
        new_gens were added to them; new points get transversal rows
        u_{s g} = s u_g and unproven Schreier generators."""
        frontier, gens = np.arange(len(level.orbit)), new_gens
        while True:
            images = self.strong[gens[:, None], level.orbit[frontier][None, :]]
            fresh = level.where[images] < 0
            if not fresh.any():
                return
            points, first = np.unique(images[fresh], return_index=True)
            gi, ki = np.nonzero(fresh)
            gi, ki = gens[gi[first]], frontier[ki[first]]
            start = len(level.orbit)
            level.orbit = np.concatenate([level.orbit, points])
            level.where[points] = np.arange(start, len(level.orbit))
            level.u = np.vstack([level.u, self.strong[gi[:, None], level.u[ki]]])
            level.u_inv = np.vstack([level.u_inv,
                                     level.u_inv[ki[:, None], self.strong_inv[gi]]])
            level.proven = np.vstack([level.proven,
                                      np.zeros((len(points), len(level.gens)), dtype=bool)])
            frontier, gens = np.arange(start, len(level.orbit)), level.gens

    def _sift(self, h: np.ndarray, below: int):
        """Strip the rows of h through the levels from ``below`` on.
        Returns the indices of the rows that reach the identity, and one
        residue of a row that does not (None if every row does): the
        first row to stop, at the first level where one stops."""
        rows = np.arange(len(h))
        residue = None
        for depth in range(below, len(self.levels)):
            level = self.levels[depth]
            k = level.where[h[:, level.point]]
            out = k < 0
            if out.any():
                if residue is None:
                    residue = h[np.flatnonzero(out)[0]]
                rows, h, k = rows[~out], h[~out], k[~out]
            h = level.u_inv[k[:, None], h]
        moved = (h != self.identity).any(axis=1)
        if residue is None and moved.any():
            residue = h[np.flatnonzero(moved)[0]]
        return rows[~moved], residue

    def _first_residue(self, i: int) -> np.ndarray | None:
        """Sift level i's unproven Schreier generators, in batches; mark the
        ones that reach the identity and return the first that does not,
        or None when the whole level is proven."""
        level = self.levels[i]
        ks, cs = np.nonzero(~level.proven)
        step = max(1, _BATCH_ENTRIES // self.identity.size)
        for start in range(0, len(ks), step):
            k, c = ks[start:start + step], cs[start:start + step]
            su = self.strong[level.gens[c][:, None], level.u[k]]      # s u_g
            h = level.u_inv[level.where[su[:, level.point]][:, None], su]
            proven, residue = self._sift(h, i + 1)
            level.proven[k[proven], c[proven]] = True
            if residue is not None:
                return residue
        return None

    def order(self) -> int:
        return math.prod(len(level.orbit) for level in self.levels)

    def contains(self, g: np.ndarray) -> bool:
        return self._sift(np.asarray(g, dtype=np.intp)[None, :], 0)[1] is None


class PermGroup:
    """Permutation group on {0, ..., n-1} given by generators.

    subgroup, when given, is a group generated by some of the generators;
    this group's stabilizer chain is then grown from a copy of the
    subgroup's chain by the generators it lacks, instead of from scratch."""

    def __init__(self, generators: Sequence[Permutation], n: int | None = None,
                 subgroup: PermGroup | None = None):
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
        if subgroup is not None and not (subgroup.n == n
                                         and set(subgroup.generators) <= set(self.generators)):
            raise PermError("the subgroup's generators are not among the generators")
        self._subgroup = subgroup
        self._chain: _StabChain | None = None

    def _stab_chain(self) -> _StabChain:
        if self._chain is None:
            if self._subgroup is None:
                self._chain = _StabChain([g.img for g in self.generators], self.n)
            else:
                have = set(self._subgroup.generators)
                self._chain = _StabChain([g.img for g in self.generators if g not in have],
                                         self.n, self._subgroup._stab_chain())
        return self._chain

    def order(self) -> int:
        return self._stab_chain().order()

    def contains(self, g: Permutation) -> bool:
        if g.n != self.n:
            raise PermError("point-set mismatch")
        return self._stab_chain().contains(g.img)

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the point set, each orbit sorted, ordered by
        smallest element.

        Every point starts labeled by itself, and each pass lowers the
        label of x to the least label of x, of g(x) for each generator g,
        and of the point its label names.  A label always names a point
        of x's orbit no larger than x.  At the fixed point label(x) <=
        label(g x) for every g, so labels are equal along each cycle of a
        generator, hence constant on the orbit, where the least point
        keeps its own."""
        label = np.arange(self.n)
        images = np.array([g.img for g in self.generators], dtype=np.intp).reshape(-1, self.n)
        while True:
            new = np.minimum(label, label[images].min(axis=0, initial=self.n))
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        points = np.argsort(label, kind="stable")
        cuts = np.flatnonzero(np.diff(label[points])) + 1
        return [orbit.tolist() for orbit in np.split(points, cuts)]

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
        sizes = [len(level.orbit) for level in self._stab_chain().levels]
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
    contained in g (trivially true when g was made with subgroup h)."""
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
    return Permutation((pi.img[:, None] * d + sigma.img[None, :]).ravel())
