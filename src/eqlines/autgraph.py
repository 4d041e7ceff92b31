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
and the second graph is refined against the cached rounds for all the
children of a node together: their partitions are the rows of one class
matrix, each round is one matrix product, and a row leaves the batch
when it stops matching (the "vertex invariant over a whole cell" of
McKay and Piperno, "Practical graph isomorphism, II", 2014).  The first
child of a node is refined alone, and the batch is built only when the
search moves past it.

An automorphism search runs the graph against itself.  Its first path,
where both sides individualize the same vertex, walks the first graph's
cached levels; every subtree off it is an isomorphism search onto the
first-path leaf.  Their roots are tried going back up the path, pruned
by an orbit closure kept up to date as generators are found.

Every node of a search is pruned by the automorphisms of the second
graph found so far (McKay and Piperno's automorphism pruning): once a
child u of a node has no map below it, neither has g.u for any such
automorphism g that fixes the second graph's path to the node
pointwise, so the whole orbit of u under those automorphisms is skipped
without being refined.  The search still reaches the same first leaf,
so every map it returns and every generator list is what the unpruned
search gives (the proof is in _Search's docstring).  Both entry points
also take known automorphisms of the second graph, the seeds: each is
checked against the full color matrices, and they prune from the root.
An automorphism search then returns the seeds followed by the maps it
finds, so it finds only what the seeds do not already generate.

Several searches against one first graph share its side of the search,
a FixedSide: its edge-code matrix, root partition and cached levels.
The line-system groups run an automorphism search and up to three
isomorphism searches onto recolorings of one cover graph, and refine
the cover once per depth between them; each search keeps its own node
count, budget and pruning generators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .permgroup import Permutation, PermGroup

COLOR_NONE = 0
COLOR_FIBER = 1
OMEGA_BASE = 2

_NCODES = 6 * 6

# search nodes one search may explore unless told otherwise
DEFAULT_BUDGET = 10 ** 7


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


def _cover(table, k: int, fiber_colors, adjacent=None) -> ColoredDigraph:
    """Z/k cover of a square table T over m indices.

    Index u gets a fiber of k vertices u*k+a, colored fiber_colors[u].
    For u != w the edge (u*k+a, w*k+b) is colored
    OMEGA_BASE + (T[u,w] + b - a) mod k, or COLOR_NONE where the m x m
    boolean array adjacent is False; edges within a fiber are
    COLOR_FIBER and the diagonal is COLOR_NONE.
    """
    T = np.asarray(table)
    m = T.shape[0]
    if T.shape != (m, m):
        raise GraphError("phase table must be square")
    # block[x][a, b]: the k x k block of an entry x = T[u,w] mod k, of a
    # pair that is not adjacent (x = k), and of a fiber (x = k + 1)
    a = np.arange(k)
    block = np.empty((k + 2, k, k), dtype=np.uint8)
    block[:k] = OMEGA_BASE + (a[:, None, None] + a[None, None, :] - a[None, :, None]) % k
    block[k] = COLOR_NONE
    block[k + 1] = np.where(np.eye(k, dtype=bool), COLOR_NONE, COLOR_FIBER)
    x = T % k if adjacent is None else np.where(adjacent, T % k, k)
    np.fill_diagonal(x, k + 1)
    E = block[x].transpose(0, 2, 1, 3).reshape(m * k, m * k)
    return ColoredDigraph(m * k, np.repeat(np.asarray(fiber_colors, dtype=np.int64), k), E, k)


def encode_sic_graph(phase_table: np.ndarray) -> ColoredDigraph:
    """The Z/4 cover (see _cover) of a phase table T, one vertex color.

    Fiber-preserving automorphisms are exactly the pairs (pi, omega)
    with omega in C4^n satisfying T[pi u, pi w] = T[u,w] + w_u - w_w,
    lifted with a global-rotation kernel of order 4.
    """
    return _cover(phase_table, 4, np.zeros(len(phase_table), dtype=np.int64))


def encode_phased_matrix_graph(sign_matrix, mode: str) -> ColoredDigraph:
    """Sign cover graph of the {+1,-1} array H of a SignMatrix.

    mode "strong": one fiber of 2 per index, vertex v = i*2+s standing
    for (i, (-1)^s); edge (i,s)-(j,t) for i != j colored by the sign
    (-1)^s (-1)^t H[i,j].  Diagonal entries become vertex colors (they
    are invariant under simultaneous row/column signed permutation).
    This is the Z/2 cover of T = (H < 0) with diag(T) as fiber colors.
    Lifted automorphisms are the pairs (pi, eps) with
    H[pi i, pi j] = eps_i eps_j H[i,j], with a global-flip kernel of
    order 2.

    mode "weak": a bipartite version on row fibers followed by column
    fibers (v_row = i*2+s, v_col = 2d + j*2+t), vertex colors telling
    the sides apart: the Z/2 cover of [[0, T], [T^T, 0]] with the side
    as fiber color and no edges between fibers of one side.  Lifted
    automorphisms are the quadruples (pi, sigma, eps, eps') with
    H[pi i, sigma j] = eps_i eps'_j H[i,j], again with an order 2
    kernel (flipping both sides at once).
    """
    T = (sign_matrix.array < 0).astype(np.int8)
    if mode == "strong":
        return _cover(T, 2, T.diagonal())
    if mode == "weak":
        zero = np.zeros_like(T)
        side = np.repeat([0, 1], len(T))
        return _cover(np.block([[zero, T], [T.T, zero]]), 2, side,
                      side[:, None] != side[None, :])
    raise GraphError(f"unknown mode {mode!r}")


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


class _Round:
    """One refinement round of the fixed side, from the (class, signature)
    boundary keys and class sizes that _group_classes gave A: a table that
    looks B's (class, signature) pairs up among A's keys.

    A's keys are sorted and distinct, so code(c, s) = c * m + (rank of s
    among the m distinct signatures of the round) is strictly increasing
    along them and exact in int64.  A partition of B matches the round iff
    every pair of B is among A's keys and hits each key as often as A
    does; its new class ids are then the key indices, the compact ids
    _group_classes would give it."""

    def __init__(self, keys, counts):
        self.counts = counts
        self.sigs = np.unique(keys[1])
        self.codes = keys[0] * self.sigs.size + np.searchsorted(self.sigs, keys[1])

    def match(self, X, S):
        """Rows of B partitions X (k x n) with signatures S: (mask of the
        rows that match, their new class ids)."""
        j = np.searchsorted(self.sigs, S)
        hit = self.sigs[np.minimum(j, self.sigs.size - 1)] == S
        code = X * self.sigs.size + j
        t = np.minimum(np.searchsorted(self.codes, code), self.codes.size - 1)
        hit &= self.codes[t] == code
        ok = hit.all(axis=1)
        k, m = t.shape[0], self.counts.size
        hits = np.bincount((t + m * np.arange(k)[:, None]).ravel(), minlength=k * m)
        ok &= (hits.reshape(k, m) == self.counts).all(axis=1)
        return ok, t


@dataclass
class _Level:
    """The fixed side's state at one search depth: its refinement rounds,
    the stable partition, and, above the leaves, the target cell and the
    vertex b individualized in it."""

    depth: int
    rounds: list
    cls: np.ndarray
    ncls: int
    cell: int = -1
    b: int = -1


# one random 64-bit label per edge code, the ordered color pair
# (e[u, v], e[v, u]) as 6 e[u, v] + e[v, u]
_REDGE = np.random.default_rng(0x5E1FC0DE).integers(0, 2 ** 64, size=_NCODES, dtype=np.uint64)


def _edge_codes(edge_color: np.ndarray) -> np.ndarray:
    """The labeled edge-code matrix M of a digraph: M @ _mix(classes) is a
    refinement round's signature.  Codes are < 36, so they fit in uint8."""
    e = np.asarray(edge_color, dtype=np.uint8)
    return _REDGE[e * 6 + e.T]


class FixedSide:
    """Graph A's side of a search, built once and shared by every search
    run against A: its edge colors, the edge-code matrix M, its vertex
    colors as compact class ids (the root partition) and the levels that
    the searches grow lazily, one per depth (see _Search).  A always
    individualizes the first vertex of its target cell, so a level
    depends on the depth alone, whichever search computes it first: an
    automorphism search and isomorphism searches onto several recolorings
    of A refine A once per depth between them, and find the same maps as
    searches with a side of their own."""

    def __init__(self, graph: ColoredDigraph):
        self.n = graph.n
        self.edge_color, self.vertex_color = graph.edge_color, graph.vertex_color
        self.M = _edge_codes(graph.edge_color)
        self.colors, self.root = np.unique(graph.vertex_color, return_inverse=True)
        self.ncls = self.colors.size
        self.levels: list[_Level] = []

    def classes_of(self, vertex_color: np.ndarray) -> np.ndarray:
        """Root class ids of another graph's vertex colors: A's id of each
        color, and ncls, an id no vertex of A has, for a color A lacks."""
        j = np.minimum(np.searchsorted(self.colors, vertex_color), self.ncls - 1)
        return np.where(self.colors[j] == vertex_color, j, self.ncls)


# largest number of entries (children x vertices) refined in one batch; it
# bounds the batch's arrays, and the refinements wasted when a child early
# in the batch leads to a result, on graphs of thousands of vertices
_BATCH_ENTRIES = 1 << 14


class _Search:
    """Individualization-refinement over a pair of colored digraphs.

    Graph A is the fixed side: at every node it individualizes b, the
    first vertex of its target cell, so A's partition and refinement
    rounds depend on the depth alone.  They are kept on A's FixedSide
    (built here from a ColoredDigraph, or shared with other searches) and
    computed once per depth, the first time any search sharing the side
    reaches the depth.  B is refined for several
    siblings at once: the children of a node are stacked as rows of one
    class matrix, each round is one matrix product over the rows still
    alive, and a row is dropped as soon as it stops matching A's cached
    round.  Every child still gets exactly the partition a refinement of
    its own would give it, and is ticked and searched in the same order.
    find_automorphisms (B is A) walks A's levels down the first path and
    searches every subtree off it as find_isomorphism searches the tree.

    gens holds automorphisms of B: the seeds given to the search, each
    checked against B's full color matrices, followed by the generators
    an automorphism search has found so far.  A node's path is the list
    of vertices individualized in B from the root down to it.  When a child u of the
    node has no map below it, the orbit of u under the automorphisms in
    gens that fix the path pointwise joins the node's failed set, and a
    child in that set is neither refined nor ticked.  Proof: take such
    an automorphism g.  B's refinement is label-equivariant: it reads
    only B's vertex colors and MB, which g preserves, and the class ids
    it hands out are the indices of A's cached keys, which do not depend
    on B's labels.  g fixes the path, so it maps the node's target cell
    onto itself, and individualizing g.u gives B the partition that
    individualizing u gives, relabeled by g, at this depth and every
    depth below.  So g maps the subtree at u onto the subtree at g.u: a
    leaf map f below u becomes g f below g.u, and one passes the leaf
    check iff the other does.  Hence a map exists below g.u iff one
    exists below u.  A pruned child therefore holds no map, and skipping
    it cannot change which child first yields one: the map the search
    returns is the unpruned search's.  The generators of an automorphism
    search are those maps, so they and the first path's orbit pruning,
    which reads them, are unchanged too."""

    def __init__(self, side: ColoredDigraph | FixedSide, eb: np.ndarray, vcolb: np.ndarray,
                 budget: int, name: str, automorphisms=()):
        if not isinstance(side, FixedSide):
            side = FixedSide(side)
        self.n = side.n
        self.budget = budget
        self.name = name
        self.nodes = 0
        self.EA, self.vcolA, self.MA = side.edge_color, side.vertex_color, side.M
        self.rootA, self.root_ncls, self.levels = side.root, side.ncls, side.levels
        self.EB, self.vcolB = eb, vcolb
        self.MB = self.MA if eb is side.edge_color else _edge_codes(eb)
        self.rootB = side.classes_of(vcolb)
        self.gens: list[np.ndarray] = []
        # known automorphisms of B head gens, so they prune from the root;
        # each is checked against B's full edge and vertex colors first,
        # the same check a map found at a leaf passes
        for p in automorphisms:
            g = p.img.astype(np.int64)
            if not (g.size == self.n and np.array_equal(vcolb[g], vcolb)
                    and np.array_equal(eb.take(g, 0).take(g, 1), eb)):
                raise GraphError("a given permutation is not an automorphism of the "
                                 "second graph")
            self.gens.append(g)

    def _fixed_level(self, up: _Level | None) -> _Level:
        """A's level in the children of ``up`` (the root when None), refined
        on the first visit to their depth: A individualizes up.b, refines,
        and targets the first vertex of its smallest nontrivial class."""
        depth = 0 if up is None else up.depth + 1
        if depth == len(self.levels):
            if up is None:
                clsA, ncls = self.rootA, self.root_ncls
            else:
                clsA, ncls = up.cls.copy(), up.ncls + 1
                clsA[up.b] = up.ncls
            rounds = []
            while True:
                clsA, keys, counts = _group_classes(clsA, self.MA @ _mix(clsA))
                rounds.append(_Round(keys, counts))
                if counts.size == ncls:
                    break
                ncls = counts.size
            level = _Level(depth, rounds, clsA, ncls)
            if ncls < self.n:
                live = np.flatnonzero(counts > 1)
                level.cell = int(live[np.argmin(counts[live])])
                level.b = int(np.flatnonzero(clsA == level.cell)[0])
            self.levels.append(level)
        return self.levels[depth]

    def _refine_rows(self, level: _Level, X, S):
        """Refine the B partitions in the rows of X against the level's
        rounds; S holds their first-round signatures.  Returns the indices
        of the rows that match every round and their stable partitions."""
        alive = np.arange(len(X))
        for r, rnd in enumerate(level.rounds):
            if r:
                S = (self.MB @ _mix(X).T).T
            ok, X = rnd.match(X, S)
            alive, X = alive[ok], X[ok]
            if not alive.size:
                break
        return alive, X

    def _refine(self):
        """Refine B at the root: (A's root level, B's partition), or None
        if the partitions stop matching."""
        level = self._fixed_level(None)
        clsB = self.rootB
        alive, X = self._refine_rows(level, clsB[None, :], (self.MB @ _mix(clsB))[None, :])
        return (level, X[0]) if alive.size else None

    def _refine_siblings(self, up: _Level, clsB, sig, ws):
        """Refine B in the children of ``up`` that individualize each w of
        ws (all in up's target cell) in one batched pass; clsB is B's
        partition at up and sig its signature MB @ _mix(clsB).  Returns,
        per w, (A's level, B's partition) or None."""
        level = self._fixed_level(up)
        k = len(ws)
        X = np.repeat(clsB[None, :], k, axis=0)
        X[np.arange(k), ws] = up.ncls
        # a child differs from clsB in entry w alone, so its first signature
        # is a rank-1 update of sig, exact in wrapping uint64
        delta = np.diff(_mix(np.array([up.cell, up.ncls])))
        S = sig[None, :] + self.MB[:, ws].T * delta
        alive, X = self._refine_rows(level, X, S)
        out = [None] * k
        for i, x in zip(alive, X):
            out[i] = (level, x)
        return out

    def _children(self, level: _Level, clsB, ws, failed: set):
        """Tick and yield (w, refined child) for the candidates w of ws,
        in order (None for a child that fails refinement), except those
        in failed, a set the caller extends between children.  The first
        child is refined alone, so a node whose first child leads to a
        result pays for no batch.  The others follow in batches of at
        most _BATCH_ENTRIES entries, each built from the candidates not
        yet failed and refined when the search asks for its first child;
        a candidate that fails after its batch was refined is skipped
        unticked."""
        sig = self.MB @ _mix(clsB)
        step = max(1, _BATCH_ENTRIES // self.n)
        todo, size = iter(ws.tolist()), 1
        while batch := list(itertools.islice((w for w in todo if w not in failed), size)):
            for w, child in zip(batch, self._refine_siblings(level, clsB, sig, batch)):
                if w not in failed:
                    self._tick()
                    yield w, child
            size = step

    def _leaf(self, clsA, clsB):
        inv_b = np.argsort(clsB)
        f = inv_b[clsA]
        ok = (np.array_equal(self.vcolB[f], self.vcolA)
              and np.array_equal(self.EB.take(f, 0).take(f, 1), self.EA))
        return f if ok else None

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(
                f"{self.name} exceeded its budget of {self.budget} search nodes "
                f"on a {self.n}-vertex graph after {self.nodes} nodes")

    # -- pruning by automorphisms of B -------------------------------------
    def _fixing(self, path):
        """The automorphisms in gens that fix every vertex of path."""
        return [g for g in self.gens if all(g[x] == x for x in path)]

    def _orbit(self, seeds, fixing, reach):
        """Add to reach, a union of orbits, the closure of seeds under the
        automorphisms fixing; returns reach."""
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

    # -- isomorphism: first full map wins ---------------------------------
    def find_isomorphism(self):
        self._tick()
        return self._isomorphism(self._refine(), [])

    def _isomorphism(self, state, path):
        """The first map below a node, or None; path is B's path to the
        node.  A child that yields no map fails its orbit under the
        automorphisms fixing the path (see the class docstring)."""
        if state is None:
            return None
        level, clsB = state
        if level.ncls == self.n:
            return self._leaf(level.cls, clsB)
        failed, fixing = set(), self._fixing(path)
        for u, child in self._children(level, clsB, np.flatnonzero(clsB == level.cell),
                                       failed):
            f = self._isomorphism(child, path + [u])
            if f is not None:
                return f
            self._orbit([u], fixing, failed)
        return None

    # -- automorphisms: generators of the full group ----------------------
    def find_automorphisms(self):
        """Append generators of A's automorphism group to gens; B must be A
        (graph_automorphisms is the only caller).  On the first path both
        graphs individualize b at every depth, so B's partition is A's
        cached level and is not refined.  Going back up the path, each
        candidate w != b of a depth, one per orbit of the generators found
        so far that fix the path above it, is the root of an isomorphism
        search: a map it finds sends b to w, so it is never the identity,
        and it has been checked at the leaf.  The candidates skipped at a
        depth lie in the orbits of tried ones under automorphisms that
        fix the path above it, seeds or maps found, so the seeds and the
        maps found still generate the whole group."""
        level = None
        while level is None or level.ncls < self.n:
            self._tick()
            level = self._fixed_level(level)
        for level in reversed(self.levels[:-1]):
            base = [up.b for up in self.levels[:level.depth]]
            sig = self.MB @ _mix(level.cls)
            # reach, the union of the tried candidates' orbits, is extended
            # from each new candidate and rebuilt only when generators are
            # found; each candidate is refined alone, as the orbits change
            # between them
            tried = [level.b]
            fixing = self._fixing(base)
            reach = self._orbit(tried, fixing, set())
            ngens = len(self.gens)
            for w in np.flatnonzero(level.cls == level.cell).tolist():
                if len(self.gens) > ngens:
                    ngens = len(self.gens)
                    fixing = self._fixing(base)
                    reach = self._orbit(tried, fixing, set())
                if w in reach:
                    continue
                self._tick()
                [child] = self._refine_siblings(level, level.cls, sig, [w])
                f = self._isomorphism(child, base + [w])
                if f is not None:
                    self.gens.append(f)
                tried.append(w)
                self._orbit([w], fixing, reach)


def graph_automorphisms(graph: ColoredDigraph | FixedSide, budget: int = DEFAULT_BUDGET,
                        automorphisms=()) -> PermGroup:
    """Group of color-preserving vertex automorphisms (as a PermGroup on
    the vertex set).  graph may be a FixedSide, whose levels the search
    then shares.

    automorphisms are known automorphisms (Permutations) of graph, the
    seeds: each is checked against the full edge and vertex color
    matrices, and GraphError is raised for one that fails.  They prune
    the search from its root, and the returned generators are the seeds,
    in order, followed by the maps the search found, each of which has
    passed the same check at its leaf.  So the group contains the group
    the seeds generate, and the check is what certifies that inclusion."""
    s = _Search(graph, graph.edge_color, graph.vertex_color, budget,
                "graph_automorphisms", automorphisms)
    s.find_automorphisms()
    return PermGroup([Permutation(g) for g in s.gens], graph.n)


def find_isomorphism(graph: ColoredDigraph | FixedSide, eb: np.ndarray, vcolb: np.ndarray,
                     budget: int = DEFAULT_BUDGET, automorphisms=()) -> Permutation | None:
    """A single color isomorphism from graph onto the digraph with edge
    colors eb and vertex colors vcolb, or None.  graph may be a FixedSide,
    whose levels the search then shares.  automorphisms are known
    automorphisms (Permutations) of that target digraph: the search is
    pruned by them and returns the same map as without them.  Each is
    checked against eb and vcolb first, and GraphError is raised for one
    that is not an automorphism."""
    f = _Search(graph, eb, vcolb, budget, "find_isomorphism", automorphisms).find_isomorphism()
    return None if f is None else Permutation(f)


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
