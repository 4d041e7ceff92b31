"""Colored digraph encodings and automorphism search.

Structures whose symmetries we need (sign matrices up to row/column
signing, phase tables valued in the fourth roots of unity) are encoded
as complete colored digraphs with small vertex fibers; fiber-preserving
color automorphisms of the digraph are then exactly the sign/phase
lifted symmetries of the original object.

The search is individualization-refinement.  Refinement inside the
search uses randomized hash signatures: collisions can only make the
partition coarser, never finer, so no valid mapping is pruned, and
every map produced at a leaf is re-verified against the full edge
color matrix before it is reported.  A deterministic seed keeps runs
reproducible.

Only the second graph's side of the search branches: the first graph
always individualizes the first vertex of its target cell, so its
partition is a function of the depth.  It is refined once per depth,
and every node refines the second graph alone against the cached
rounds.  On the first path, candidates are pruned by an orbit closure
that is kept up to date as candidates are tried and generators found.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permgroup import Permutation, PermGroup

COLOR_NONE = 0
COLOR_FIBER = 1
OMEGA_BASE = 2

_NCODES = 6 * 6


class BudgetExceeded(RuntimeError):
    """Raised when one search explores more nodes than its budget; the
    message names the search (graph_automorphisms or find_isomorphism),
    the graph size and the node count."""


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class ColoredDigraph:
    """Complete digraph with small-integer vertex and edge colors.

    Vertices are 0..n-1, grouped into contiguous fibers of size
    fiber_size (vertex v belongs to fiber v // fiber_size).  Edge colors
    are < 6: 0 none, 1 same-fiber, 2..5 payload colors.
    """

    n: int
    vertex_color: np.ndarray
    edge_color: np.ndarray
    fiber_size: int

    def __post_init__(self):
        if self.edge_color.shape != (self.n, self.n):
            raise GraphError("edge color matrix shape mismatch")
        if self.vertex_color.shape != (self.n,):
            raise GraphError("vertex color shape mismatch")
        if self.n % self.fiber_size:
            raise GraphError("fiber size must divide vertex count")
        if int(self.edge_color.max(initial=0)) >= 6:
            raise GraphError("edge colors must be < 6")


@dataclass(frozen=True)
class Recoloring:
    """Phase-color substitution: payload color exponent t becomes
    (shift + sign * t) mod 4, where shift = 2 for eps == -1 and
    sign = -1 for gamma == "conj".  Colors below OMEGA_BASE are kept.
    All such substitutions are involutions."""

    eps: int = 1
    gamma: str = "id"

    def __post_init__(self):
        if self.eps not in (1, -1) or self.gamma not in ("id", "conj"):
            raise GraphError("bad recoloring parameters")

    def lut(self) -> np.ndarray:
        shift = 0 if self.eps == 1 else 2
        sign = 1 if self.gamma == "id" else -1
        table = np.arange(6, dtype=np.uint8)
        for t in range(4):
            table[OMEGA_BASE + t] = OMEGA_BASE + ((shift + sign * t) % 4)
        return table

    def apply(self, edge_color: np.ndarray) -> np.ndarray:
        return self.lut()[edge_color]


def encode_sic_graph(phase_table: np.ndarray) -> ColoredDigraph:
    """Cover graph of a phase table T with values in Z/4.

    Each index u of T gets a fiber of 4 vertices u*4+a; for u != w the
    edge (u*4+a, w*4+b) is colored OMEGA_BASE + (T[u,w] + b - a) mod 4.
    Fiber-preserving automorphisms are exactly the pairs (pi, omega)
    with omega in C4^n satisfying T[pi u, pi w] = T[u,w] + w_u - w_w,
    lifted with a global-rotation kernel of order 4.
    """
    T = np.asarray(phase_table)
    m = T.shape[0]
    if T.shape != (m, m):
        raise GraphError("phase table must be square")
    n = 4 * m
    a = np.arange(4)
    s4 = (a[None, :] - a[:, None]) % 4
    big = np.repeat(np.repeat(T.astype(np.int16) % 4, 4, axis=0), 4, axis=1)
    E = (OMEGA_BASE + (big + np.tile(s4, (m, m))) % 4).astype(np.uint8)
    for u in range(m):
        E[4 * u:4 * u + 4, 4 * u:4 * u + 4] = COLOR_FIBER
    np.fill_diagonal(E, COLOR_NONE)
    return ColoredDigraph(n, np.zeros(n, dtype=np.int64), E, 4)


def encode_phased_matrix_graph(sign_matrix, mode: str) -> ColoredDigraph:
    """Sign cover graph of a {+1,-1} matrix H.

    mode "strong": one fiber of 2 per index, vertex v = i*2+s standing
    for (i, (-1)^s); edge (i,s)-(j,t) for i != j colored by the sign
    (-1)^s (-1)^t H[i,j].  Diagonal entries become vertex colors (they
    are invariant under simultaneous row/column signed permutation).
    Lifted automorphisms are the pairs (pi, eps) with
    H[pi i, pi j] = eps_i eps_j H[i,j], with a global-flip kernel of
    order 2.

    mode "weak": a bipartite version on row fibers followed by column
    fibers (v_row = i*2+s, v_col = 2d + j*2+t), vertex colors telling
    the sides apart.  Lifted automorphisms are the quadruples
    (pi, sigma, eps, eps') with H[pi i, sigma j] = eps_i eps'_j H[i,j],
    again with an order 2 kernel (flipping both sides at once).
    """
    H = sign_matrix.array if hasattr(sign_matrix, "array") else np.asarray(sign_matrix)
    d = H.shape[0]
    sgn = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    prod = np.kron(H.astype(np.int8), sgn)
    codes = np.where(prod == 1, OMEGA_BASE, OMEGA_BASE + 1).astype(np.uint8)
    if mode == "strong":
        n = 2 * d
        E = codes
        for i in range(d):
            E[2 * i:2 * i + 2, 2 * i:2 * i + 2] = COLOR_FIBER
        np.fill_diagonal(E, COLOR_NONE)
        vcol = np.repeat(np.where(H.diagonal() == 1, 0, 1), 2).astype(np.int64)
        return ColoredDigraph(n, vcol, E, 2)
    if mode == "weak":
        n = 4 * d
        E = np.zeros((n, n), dtype=np.uint8)
        E[:2 * d, 2 * d:] = codes
        E[2 * d:, :2 * d] = codes.T
        for i in range(2 * d):
            E[2 * i:2 * i + 2, 2 * i:2 * i + 2] = COLOR_FIBER
        np.fill_diagonal(E, COLOR_NONE)
        vcol = np.repeat([0, 1], 2 * d).astype(np.int64)
        return ColoredDigraph(n, vcol, E, 2)
    raise GraphError(f"unknown mode {mode!r}")


def color_refine(graph: ColoredDigraph, initial: np.ndarray | None = None):
    """Exact one-dimensional color refinement.

    Returns (classes, n_classes) where classes[v] is the stable class id
    of vertex v.  Two vertices land in the same class iff no sequence of
    degree-signature rounds separates them.  Class ids are canonical
    with respect to (previous class, sorted signature) order.
    """
    E = graph.edge_color.astype(np.int64)
    P = E * 6 + E.T
    cls = (graph.vertex_color if initial is None else initial).astype(np.int64)
    ncls = len(np.unique(cls))
    n = graph.n
    while True:
        rows = np.sort(cls[None, :] * _NCODES + P, axis=1)
        keys = [(int(cls[v]), rows[v].tobytes()) for v in range(n)]
        idmap = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = np.fromiter((idmap[k] for k in keys), dtype=np.int64, count=n)
        if len(idmap) == ncls:
            return cls, ncls
        cls, ncls = new, len(idmap)


_SPLIT1 = np.uint64(0x9E3779B97F4A7C15)
_SPLIT2 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT3 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + _SPLIT1
    z = (z ^ (z >> np.uint64(30))) * _SPLIT2
    z = (z ^ (z >> np.uint64(27))) * _SPLIT3
    return z ^ (z >> np.uint64(31))


def _group_classes(cls: np.ndarray, sig: np.ndarray):
    """Split classes by signature.  Returns (new class array with compact
    ids in (class, signature) lexicographic order, boundary keys, counts)."""
    n = cls.size
    order = np.lexsort((sig, cls))
    c, s = cls[order], sig[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = (c[1:] != c[:-1]) | (s[1:] != s[:-1])
    ids = np.cumsum(head) - 1
    new = np.empty(n, dtype=np.int64)
    new[order] = ids
    starts = np.flatnonzero(head)
    counts = np.diff(np.append(starts, n))
    return new, (c[head], s[head]), counts


@dataclass
class _Level:
    """The fixed side's state at one search depth: the (boundary keys,
    counts) of each refinement round, the stable partition, and, above
    the leaves, the target cell and the vertex b individualized in it."""

    depth: int
    rounds: list
    cls: np.ndarray
    ncls: int
    cell: int = -1
    b: int = -1


class _Search:
    """Individualization-refinement over a pair of colored digraphs.

    Graph A is the fixed side: at every node it individualizes b, the
    first vertex of its target cell, so A's partition and refinement
    rounds depend on the depth alone.  They are computed once per depth,
    the first time the depth is reached, and each later node refines
    only B, comparing it round by round against A's cached rounds."""

    def __init__(self, ga: ColoredDigraph, eb: np.ndarray, vcolb: np.ndarray,
                 budget: int, name: str):
        self.n = ga.n
        self.budget = budget
        self.name = name
        self.nodes = 0
        rng = np.random.default_rng(0x5E1FC0DE)
        redge = rng.integers(0, 2 ** 64, size=_NCODES, dtype=np.uint64)
        ea = ga.edge_color.astype(np.int64)
        ebi = eb.astype(np.int64)
        self.EA, self.vcolA = ga.edge_color, ga.vertex_color
        self.EB, self.vcolB = eb, vcolb
        self.MA = redge[ea * 6 + ea.T]
        self.MB = self.MA if eb is ga.edge_color else redge[ebi * 6 + ebi.T]
        self.rootA = ga.vertex_color.astype(np.int64)
        self.rootB = vcolb.astype(np.int64)
        self.root_ncls = len(np.unique(np.concatenate([self.rootA, self.rootB])))
        self.levels: list[_Level] = []
        self.gens: list[np.ndarray] = []

    def _fixed_input(self, up: _Level | None):
        """A's partition and class count entering the child of ``up``
        (the root when ``up`` is None)."""
        if up is None:
            return self.rootA, self.root_ncls
        return self._indiv(up.cls, up.b, up.ncls), up.ncls + 1

    def _level(self, up: _Level | None, rounds, cls, ncls) -> _Level:
        """A's level below ``up`` after the given rounds."""
        depth = 0 if up is None else up.depth + 1
        if ncls == self.n:
            return _Level(depth, rounds, cls, ncls)
        counts = np.bincount(cls, minlength=ncls)
        live = np.flatnonzero(counts > 1)
        c = int(live[np.argmin(counts[live])])
        return _Level(depth, rounds, cls, ncls, c, int(np.flatnonzero(cls == c)[0]))

    def _refine(self, up: _Level | None, clsB):
        """Refine B in the child of ``up``; returns (A's level, B's
        partition), or None if the partitions stop matching.  A's rounds
        are computed here on the first visit to the child's depth."""
        depth = 0 if up is None else up.depth + 1
        if depth == len(self.levels):
            clsA, ncls = self._fixed_input(up)
            rounds = []
            while True:
                clsA, keys, counts = _group_classes(clsA, self.MA @ _mix(clsA))
                rounds.append((keys, counts))
                if counts.size == ncls:
                    break
                ncls = counts.size
            self.levels.append(self._level(up, rounds, clsA, ncls))
        level = self.levels[depth]
        for keys, counts in level.rounds:
            newB, keysB, countsB = _group_classes(clsB, self.MB @ _mix(clsB))
            if (counts.size != countsB.size
                    or not np.array_equal(keys[0], keysB[0])
                    or not np.array_equal(keys[1], keysB[1])
                    or not np.array_equal(counts, countsB)):
                return None
            clsB = newB
        return level, clsB

    def _leaf(self, clsA, clsB):
        inv_b = np.argsort(clsB)
        f = inv_b[clsA]
        ok = (np.array_equal(self.vcolB[f], self.vcolA)
              and np.array_equal(self.EB[np.ix_(f, f)], self.EA))
        return f if ok else None

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(
                f"{self.name} exceeded its budget of {self.budget} search nodes "
                f"on a {self.n}-vertex graph after {self.nodes} nodes")

    @staticmethod
    def _indiv(cls, v, ncls):
        out = cls.copy()
        out[v] = ncls
        return out

    # -- isomorphism: first full map wins ---------------------------------
    def find_isomorphism(self, up, clsB):
        self._tick()
        state = self._refine(up, clsB)
        if state is None:
            return None
        level, clsB = state
        if level.ncls == self.n:
            return self._leaf(level.cls, clsB)
        for w in np.flatnonzero(clsB == level.cell):
            f = self.find_isomorphism(level, self._indiv(clsB, int(w), level.ncls))
            if f is not None:
                return f
        return None

    # -- automorphisms: generators of the full group ----------------------
    def _orbit(self, seeds, base, reach):
        """Add to reach, a union of orbits, the closure of seeds under the
        found generators fixing base pointwise; returns reach."""
        fixing = [g for g in self.gens if all(g[x] == x for x in base)]
        frontier = [v for v in seeds if v not in reach]
        reach.update(frontier)
        while frontier:
            v = frontier.pop()
            for g in fixing:
                u = int(g[v])
                if u not in reach:
                    reach.add(u)
                    frontier.append(u)
        return reach

    def find_automorphisms(self, up, clsB, base, first_path):
        self._tick()
        state = self._refine(up, clsB)
        if state is None:
            return False
        level, clsB = state
        if level.ncls == self.n:
            f = self._leaf(level.cls, clsB)
            if f is None or np.array_equal(f, np.arange(self.n)):
                return False
            self.gens.append(f)
            return True
        b, ncls = level.b, level.ncls
        cands = [int(w) for w in np.flatnonzero(clsB == level.cell)]
        if not first_path:
            for w in cands:
                if self.find_automorphisms(level, self._indiv(clsB, w, ncls),
                                           base + [b], False):
                    return True
            return False
        # on the first path b itself comes first, then one representative
        # per orbit of the generators found so far that fix the base;
        # reach, the union of the tried candidates' orbits, is extended
        # from each new candidate and rebuilt only when generators are found
        cands.sort(key=lambda w: (w != b, w))
        found = False
        tried: list[int] = []
        reach: set[int] = set()
        ngens = len(self.gens)
        for w in cands:
            if len(self.gens) > ngens:
                ngens = len(self.gens)
                reach = self._orbit(tried, base, set())
            if w in reach:
                continue
            if self.find_automorphisms(level, self._indiv(clsB, w, ncls),
                                       base + [b], w == b):
                found = True
            tried.append(w)
            self._orbit([w], base, reach)
        return found


def graph_automorphisms(graph: ColoredDigraph, budget: int = 10 ** 7) -> PermGroup:
    """Group of color-preserving vertex automorphisms (as a PermGroup on
    the vertex set).  Every generator has been checked against the full
    edge and vertex color matrices."""
    s = _Search(graph, graph.edge_color, graph.vertex_color, budget,
                "graph_automorphisms")
    s.find_automorphisms(None, s.rootB, [], True)
    gens = [Permutation(g) for g in s.gens]
    return PermGroup(gens, graph.n)


def find_isomorphism(graph: ColoredDigraph, eb: np.ndarray, vcolb: np.ndarray,
                     budget: int = 10 ** 7) -> Permutation | None:
    """A single color isomorphism from graph onto the digraph with edge
    colors eb and vertex colors vcolb, or None."""
    s = _Search(graph, eb, vcolb, budget, "find_isomorphism")
    f = s.find_isomorphism(None, s.rootB)
    return None if f is None else Permutation(f)


def graph_isomorphism_to_recolored(graph: ColoredDigraph, recoloring: Recoloring,
                                   budget: int = 10 ** 7) -> Permutation | None:
    """Vertex map carrying the graph onto itself after the given payload
    color substitution, or None if the substitution is not realized."""
    return find_isomorphism(graph, recoloring.apply(graph.edge_color),
                            graph.vertex_color, budget)


def project_fiber(perm: Permutation, fiber_size: int) -> Permutation:
    """Collapse a fiber-preserving vertex permutation to its action on
    fibers; rejects permutations that tear a fiber apart."""
    m = fiber_size
    if perm.n % m:
        raise GraphError("fiber size does not divide degree")
    img = perm.img.reshape(-1, m) // m
    if not (img == img[:, :1]).all():
        raise GraphError("permutation does not preserve fibers")
    return Permutation(img[:, 0])
