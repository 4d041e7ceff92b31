import itertools

import numpy as np
import pytest

from eqlines.autgraph import (
    COLOR_FIBER,
    COLOR_NONE,
    OMEGA_BASE,
    BudgetExceeded,
    ColoredDigraph,
    GraphError,
    Recoloring,
    _group_classes,
    _Round,
    _mix,
    _Level,
    _Search,
    encode_phased_matrix_graph,
    encode_sic_graph,
    find_isomorphism,
    graph_automorphisms,
    project_fiber,
)
from eqlines.exactalg import Ring
from eqlines.hadamard import SignMatrix, from_recipe, sylvester
from eqlines.permgroup import Permutation, PermGroup
from eqlines.sic import build_tilde, construct_sic


def _path_graph(n):
    """Directed path 0 -> 1 -> ... -> n-1, trivial fibers."""
    e = np.zeros((n, n), dtype=np.uint8)
    for v in range(n - 1):
        e[v, v + 1] = 2
    return ColoredDigraph(n, np.zeros(n, dtype=np.int64), e, 1)


def _cycle_graph(n):
    e = np.zeros((n, n), dtype=np.uint8)
    for v in range(n):
        e[v, (v + 1) % n] = 2
        e[(v + 1) % n, v] = 2
    return ColoredDigraph(n, np.zeros(n, dtype=np.int64), e, 1)


def _root_classes(g):
    """Class count of the search's own refinement of g at the root."""
    s = _Search(g, g.edge_color, g.vertex_color, 1, "root refinement")
    return s._refine()[0].ncls


def test_root_refinement_separates_path_ends():
    # a directed path is completely rigid under refinement
    assert _root_classes(_path_graph(5)) == 5


def test_root_refinement_cycle_stays_uniform():
    assert _root_classes(_cycle_graph(6)) == 1


def test_path_graph_is_asymmetric():
    g = graph_automorphisms(_path_graph(6))
    assert g.order() == 1


def test_cycle_graph_dihedral():
    g = graph_automorphisms(_cycle_graph(7))
    assert g.order() == 14


def test_automorphisms_verified_brute_force():
    # random small digraph: compare against exhaustive search
    rng = np.random.default_rng(5)
    n = 6
    e = rng.integers(0, 3, size=(n, n)).astype(np.uint8)
    e[e == 1] = 0  # keep colors in {0, 2}; 1 is reserved for fibers
    np.fill_diagonal(e, 0)
    g = ColoredDigraph(n, np.zeros(n, dtype=np.int64), e, 1)
    brute = 0
    for perm in itertools.permutations(range(n)):
        f = np.array(perm)
        if np.array_equal(e[np.ix_(f, f)], e):
            brute += 1
    assert graph_automorphisms(g).order() == brute


def test_budget_enforced():
    g = _cycle_graph(12)
    with pytest.raises(BudgetExceeded) as exc:
        graph_automorphisms(g, budget=2)
    msg = str(exc.value)
    assert "graph_automorphisms" in msg and "budget of 2 " in msg
    assert "12-vertex graph" in msg and "after 3 nodes" in msg
    with pytest.raises(BudgetExceeded, match="find_isomorphism .* 12-vertex graph"):
        find_isomorphism(g, g.edge_color, g.vertex_color, budget=1)


def test_find_isomorphism_relabeled_graph():
    g = _path_graph(7)
    f0 = np.array([3, 0, 6, 2, 5, 1, 4])
    eb = np.zeros_like(g.edge_color)
    eb[np.ix_(f0, f0)] = g.edge_color
    iso = find_isomorphism(g, eb, g.vertex_color)
    assert iso is not None
    assert np.array_equal(eb[np.ix_(iso.img, iso.img)], g.edge_color)


def test_find_isomorphism_distinguishes():
    a = _path_graph(6)
    b = _cycle_graph(6)
    assert find_isomorphism(a, b.edge_color, b.vertex_color) is None


def test_recoloring_involutions():
    for eps, gamma in [(1, "id"), (-1, "id"), (1, "conj"), (-1, "conj")]:
        r = Recoloring(eps, gamma)
        lut = r.lut()
        assert lut[0] == 0 and lut[1] == 1
        twice = lut[lut]
        assert np.array_equal(twice, np.arange(6))


def test_sic_graph_shape_and_kernel():
    s = construct_sic(sylvester(1), Ring("gf:3"))
    g = encode_sic_graph(s.phases)
    assert g.n == 16 and g.fiber_size == 4
    lifted = graph_automorphisms(g)
    projected = [project_fiber(p, 4) for p in lifted.generators]
    from eqlines.permgroup import PermGroup
    assert lifted.order() == 4 * PermGroup(projected, 4).order()


def test_phased_graph_strong_counts_signed_pairs():
    # [[1,1],[1,-1]]: only the two global sign vectors work, so the
    # projected group is trivial
    g = encode_phased_matrix_graph(sylvester(1), "strong")
    assert g.n == 4
    assert graph_automorphisms(g).order() == 2


def test_phased_graph_weak_sides_not_swapped():
    g = encode_phased_matrix_graph(sylvester(1), "weak")
    lifted = graph_automorphisms(g)
    d = 2
    for gen in lifted.generators:
        rows = gen.img[:2 * d] // 2
        assert rows.max() < d  # row fibers stay on the row side


def _cover_by_loops(n, fiber, vertex_color, color):
    """The graph of the encoders' docstrings, one edge at a time: color(v, w)
    for vertices of different fibers, COLOR_FIBER within a fiber and
    COLOR_NONE on the diagonal."""
    e = np.zeros((n, n), dtype=np.uint8)
    for v in range(n):
        for w in range(n):
            if v == w:
                e[v, w] = COLOR_NONE
            elif v // fiber == w // fiber:
                e[v, w] = COLOR_FIBER
            else:
                e[v, w] = color(v, w)
    return e, np.array(vertex_color, dtype=np.int64)


def _assert_same_graph(g, e, vcol, fiber):
    assert g.edge_color.dtype == e.dtype and np.array_equal(g.edge_color, e)
    assert g.vertex_color.dtype == vcol.dtype and np.array_equal(g.vertex_color, vcol)
    assert g.fiber_size == fiber and g.n == len(vcol)


def _encoder_tables():
    rng = np.random.default_rng(12)
    yield construct_sic(sylvester(1), Ring("gf:3")).phases
    yield construct_sic(from_recipe("paley1:7"), Ring("gf:7")).phases
    yield rng.integers(0, 4, size=(5, 5)).astype(np.int8)


@pytest.mark.parametrize("table", list(_encoder_tables()))
def test_sic_graph_matches_its_formula(table):
    m = table.shape[0]

    def color(v, w):
        (u, a), (x, b) = divmod(v, 4), divmod(w, 4)
        return OMEGA_BASE + (int(table[u, x]) + b - a) % 4

    e, vcol = _cover_by_loops(4 * m, 4, [0] * (4 * m), color)
    _assert_same_graph(encode_sic_graph(table), e, vcol, 4)


def _encoder_matrices():
    rng = np.random.default_rng(12)
    yield sylvester(1)
    yield from_recipe("paley1:3")
    yield SignMatrix.from_array(np.array([[-1, -1], [1, -1]]))
    yield SignMatrix.from_array(rng.choice([-1, 1], size=(5, 5)))


@pytest.mark.parametrize("h", list(_encoder_matrices()))
def test_phased_graphs_match_their_formulas(h):
    H, d = h.array, h.d

    def sign_color(i, s, j, t):
        # the sign (-1)^s (-1)^t H[i, j]
        return OMEGA_BASE if (-1) ** (s + t) * int(H[i, j]) == 1 else OMEGA_BASE + 1

    def strong(v, w):
        (i, s), (j, t) = divmod(v, 2), divmod(w, 2)
        return sign_color(i, s, j, t)

    diag = [0 if H[i, i] == 1 else 1 for i in range(d) for _ in range(2)]
    e, vcol = _cover_by_loops(2 * d, 2, diag, strong)
    _assert_same_graph(encode_phased_matrix_graph(h, "strong"), e, vcol, 2)

    def weak(v, w):
        if (v < 2 * d) == (w < 2 * d):
            return COLOR_NONE  # same side
        if v >= 2 * d:
            v, w = w, v
        (i, s), (j, t) = divmod(v, 2), divmod(w - 2 * d, 2)
        return sign_color(i, s, j, t)

    sides = [0] * (2 * d) + [1] * (2 * d)
    e, vcol = _cover_by_loops(4 * d, 2, sides, weak)
    _assert_same_graph(encode_phased_matrix_graph(h, "weak"), e, vcol, 2)


def test_recolored_search_on_sic_graph():
    s = construct_sic(sylvester(1), Ring("gf:3"))
    g = encode_sic_graph(s.phases)
    f = find_isomorphism(g, Recoloring(-1, "id").apply(g.edge_color), g.vertex_color)
    assert f is not None
    lut = Recoloring(-1, "id").lut()
    assert np.array_equal(lut[g.edge_color][np.ix_(f.img, f.img)], g.edge_color)


def test_project_fiber_rejects_torn_fibers():
    with pytest.raises(GraphError):
        project_fiber(Permutation([0, 2, 1, 3]), 2)
    p = project_fiber(Permutation([2, 3, 0, 1]), 2)
    assert p.as_list() == [1, 0]


def test_colored_digraph_validation():
    with pytest.raises(GraphError):
        ColoredDigraph(3, np.zeros(3, dtype=np.int64),
                       np.zeros((3, 3), dtype=np.uint8), 2)
    with pytest.raises(GraphError):
        ColoredDigraph(2, np.zeros(2, dtype=np.int64),
                       np.full((2, 2), 9, dtype=np.uint8), 1)


# -- cross-checks of the search against brute force and a lockstep reference


def _random_graph(rng, n, fiber, npayload, kind, nvcol):
    """Random colored digraph on n vertices in fibers of the given size.
    Same-fiber edges get COLOR_FIBER, the others colors from
    {0, 2, ..., npayload + 1}: independently ("random"), symmetric
    ("undirected"), or depending only on the difference of the fiber
    indices mod n // fiber and of the positions in the fibers
    ("circulant", with a vertex-transitive group).  Vertex colors are
    constant on fibers."""
    palette = np.array([0] + list(range(2, npayload + 2)), dtype=np.uint8)
    fib, pos = np.arange(n) // fiber, np.arange(n) % fiber
    if kind == "circulant":
        m = n // fiber
        table = palette[rng.integers(0, palette.size, size=(m, fiber))]
        e = table[(fib[None, :] - fib[:, None]) % m, (pos[None, :] - pos[:, None]) % fiber]
        vcol = np.zeros(n, dtype=np.int64)
    else:
        e = palette[rng.integers(0, palette.size, size=(n, n))]
        if kind == "undirected":
            e = np.triu(e, 1)
            e = e + e.T
        vcol = rng.integers(0, nvcol, size=n // fiber).repeat(fiber).astype(np.int64)
    e[fib[:, None] == fib[None, :]] = 1
    np.fill_diagonal(e, 0)
    return ColoredDigraph(n, vcol, e, fiber)


def _all_perms(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _isomorphisms(ga, gb, perms):
    """Maps f with gb[f(u), f(v)] = ga[u, v] and equal vertex colors."""
    ok = (gb.edge_color[perms[:, :, None], perms[:, None, :]] == ga.edge_color).all(axis=(1, 2))
    ok &= (gb.vertex_color[perms] == ga.vertex_color).all(axis=1)
    return perms[ok]


def _random_cases(seed, count):
    """count graphs with n <= 7, fibers of size 1 and 2, one to three
    payload colors, one or two vertex colors."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        fiber = 1 + k % 2
        n = int(rng.integers(1, 4)) * 2 if fiber == 2 else int(rng.integers(2, 8))
        kind = ("random", "undirected", "circulant")[k % 3]
        yield rng, _random_graph(rng, n, fiber, int(rng.integers(1, 4)), kind,
                                 int(rng.integers(1, 3)))


def _relabel(rng, g):
    f0 = rng.permutation(g.n)
    eb = np.zeros_like(g.edge_color)
    eb[np.ix_(f0, f0)] = g.edge_color
    vb = np.empty_like(g.vertex_color)
    vb[f0] = g.vertex_color
    return ColoredDigraph(g.n, vb, eb, g.fiber_size)


def test_automorphism_orders_match_brute_force():
    orders = []
    for _, g in _random_cases(11, 30):
        group = graph_automorphisms(g)
        for gen in group.generators:
            assert len(_isomorphisms(g, g, gen.img[None, :])) == 1
        brute = len(_isomorphisms(g, g, _all_perms(g.n)))
        assert group.order() == brute
        orders.append(brute)
    assert max(orders) >= 8  # the cases include vertex-transitive groups


def test_find_isomorphism_matches_brute_force():
    verdicts = set()
    for rng, g in _random_cases(12, 30):
        b = _relabel(rng, g)
        iso = find_isomorphism(g, b.edge_color, b.vertex_color)
        assert iso is not None
        assert len(_isomorphisms(g, b, iso.img[None, :])) == 1
        # swap two edge colors outside the fibers: the color counts stay,
        # isomorphism may or may not survive; exhaustive search decides
        off = np.argwhere((b.edge_color != 1) & ~np.eye(g.n, dtype=bool))
        if not len(off):
            continue
        u, v = off[rng.choice(len(off), size=2)]
        e = b.edge_color.copy()
        e[tuple(u)], e[tuple(v)] = e[tuple(v)], e[tuple(u)]
        other = ColoredDigraph(g.n, b.vertex_color, e, g.fiber_size)
        iso = find_isomorphism(g, other.edge_color, other.vertex_color)
        brute = _isomorphisms(g, other, _all_perms(g.n))
        assert (iso is None) == (len(brute) == 0)
        if iso is not None:
            assert len(_isomorphisms(g, other, iso.img[None, :])) == 1
        verdicts.add(iso is None)
    assert verdicts == {True, False}


def test_find_isomorphism_needs_search_to_reject():
    # a 6-cycle and two triangles are both 2-regular: refinement alone
    # cannot tell them apart, the search has to
    hexagon = _cycle_graph(6)
    e = np.zeros((6, 6), dtype=np.uint8)
    for tri in ((0, 1, 2), (3, 4, 5)):
        for u in tri:
            for v in tri:
                if u != v:
                    e[u, v] = 2
    assert _root_classes(hexagon) == 1
    assert find_isomorphism(hexagon, e, hexagon.vertex_color) is None


def test_round_lookup_matches_group_classes():
    # the batched refinement's lookup accepts a row of B exactly when
    # _group_classes gives it A's keys and counts, and then gives it the
    # same class ids; the rows are relabelings of A and every change of
    # one class or one signature to another value
    rng = np.random.default_rng(17)
    n = 12
    cls = rng.integers(0, 3, size=n)
    sig = rng.choice(np.array([5, 9, 2 ** 63 + 1], dtype=np.uint64), size=n)
    _, keys, counts = _group_classes(cls, sig)
    assert keys[1].size > np.unique(keys[1]).size  # a signature in two classes
    rows = [(cls[f], sig[f]) for f in (rng.permutation(n) for _ in range(5))]
    for u in range(n):
        for c in range(4):
            x = cls.copy()
            x[u] = c
            rows.append((x, sig))
        for value in (5, 7, 9, 2 ** 63 + 1):
            s = sig.copy()
            s[u] = value
            rows.append((cls, s))
    ok, ids = _Round(keys, counts).match(np.array([x for x, _ in rows]),
                                         np.array([s for _, s in rows]))
    assert 0 < ok.sum() < len(rows)
    for (x, s), hit, row_ids in zip(rows, ok, ids):
        newB, keysB, countsB = _group_classes(x, s)
        same = (np.array_equal(countsB, counts) and np.array_equal(keysB[0], keys[0])
                and np.array_equal(keysB[1], keys[1]))
        assert hit == same
        if same:
            assert np.array_equal(row_ids, newB)


class _Lockstep(_Search):
    """Reference search: refines each child alone, both graphs in
    lockstep from its own individualization and target-cell rule,
    recomputing the first graph's rounds each time instead of caching
    them per depth and refining siblings in batches, and recomputes the
    first path's orbit closure from every vertex reached so far instead
    of extending it.  Only the first path of an automorphism search,
    which refines nothing, walks the cached levels under test."""

    def _orbit(self, seeds, fixing, reach):
        reach |= super()._orbit(list(reach) + list(seeds), fixing, set())
        return reach

    def _refine(self):
        return self._lockstep(0, self.rootA, self.rootB, self.root_ncls)

    def _refine_siblings(self, up, clsB, sig, ws):
        out = []
        for w in ws:
            clsA, child = up.cls.copy(), clsB.copy()
            clsA[up.b] = child[w] = up.ncls
            out.append(self._lockstep(up.depth + 1, clsA, child, up.ncls + 1))
        return out

    def _lockstep(self, depth, clsA, clsB, ncls):
        """Refine both graphs from the given partitions: (A's level, B's
        partition), or None if the partitions stop matching."""
        while True:
            newA, keysA, countsA = _group_classes(clsA, self.MA @ _mix(clsA))
            newB, keysB, countsB = _group_classes(clsB, self.MB @ _mix(clsB))
            if (countsA.size != countsB.size
                    or not np.array_equal(keysA[0], keysB[0])
                    or not np.array_equal(keysA[1], keysB[1])
                    or not np.array_equal(countsA, countsB)):
                return None
            clsA, clsB = newA, newB
            if countsA.size == ncls:
                break
            ncls = countsA.size
        if ncls == self.n:
            return _Level(depth, [], clsA, ncls), clsB
        # target the first vertex of the smallest nontrivial class
        sizes = np.bincount(clsA, minlength=ncls)
        cell = min((sizes[c], c) for c in range(ncls) if sizes[c] > 1)[1]
        return _Level(depth, [], clsA, ncls, cell, int(np.flatnonzero(clsA == cell)[0])), clsB


def _bicirculant():
    """Two orbits of Z6 that refinement cannot separate: a directed
    6-cycle x and two directed triangles y (x_i -> x_{i+1} and
    y_i -> y_{i+4} in color 2, x_i <-> y_i in color 4).  The labels put
    x_0, x_3, y_0, y_3, x_2 first: at the root, the first path prunes y_3
    by the generator that x_3 gave, and y_1, y_2, y_4, y_5 only by the
    one that x_2 gives after y_0 has been tried."""
    order = [("x", 0), ("x", 3), ("y", 0), ("y", 3), ("x", 2), ("y", 1), ("y", 2),
             ("y", 4), ("y", 5), ("x", 1), ("x", 4), ("x", 5)]
    label = {v: i for i, v in enumerate(order)}
    e = np.zeros((12, 12), dtype=np.uint8)
    for i in range(6):
        e[label["x", i], label["x", (i + 1) % 6]] = 2
        e[label["y", i], label["y", (i + 4) % 6]] = 2
        e[label["x", i], label["y", i]] = e[label["y", i], label["x", i]] = 4
    return ColoredDigraph(12, np.zeros(12, dtype=np.uint8), e, 1)


def test_bicirculant_group():
    g = _bicirculant()
    assert _root_classes(g) == 1
    assert graph_automorphisms(g).order() == 6


# node counts of the automorphism search and of the conjugation
# isomorphism search, as the lockstep search with a fresh orbit closure
# per candidate gave them; they pin the search tree where the reference
# shares the code under test
def _differential_graphs():
    yield "bicirculant", _bicirculant(), (5, 2)
    yield "sic sylvester:1 gf:3", encode_sic_graph(
        construct_sic(sylvester(1), Ring("gf:3")).phases), (8, 3)
    for recipe in ("sylvester:3", "paley1:7"):
        for mode, nodes in (("weak", (43, 1)), ("strong", (13, 1))):
            yield (f"{recipe} {mode}",
                   encode_phased_matrix_graph(from_recipe(recipe), mode), nodes)
    # most nodes of this search are leaf candidates that fail refinement;
    # automorphism pruning skips all but 397 of the 3165 nodes it had
    yield ("paley1:19 weak", encode_phased_matrix_graph(from_recipe("paley1:19"), "weak"),
           (397, 1))


def _isomorphism_runs(graph, eb, nodes):
    """The isomorphism search onto edge colors eb, under test and by the
    reference: both visit the given number of nodes and agree."""
    maps = []
    for cls in (_Search, _Lockstep):
        s = cls(graph, eb, graph.vertex_color, 10 ** 7, "find_isomorphism")
        maps.append((s.find_isomorphism(), s.nodes))
    assert maps[0][1] == maps[1][1] == nodes
    assert (maps[0][0] is None) == (maps[1][0] is None)
    if maps[0][0] is not None:
        assert np.array_equal(maps[0][0], maps[1][0])
    return maps[0][0]


@pytest.mark.parametrize("name,graph,nodes", list(_differential_graphs()))
def test_cached_rounds_match_lockstep_refinement(name, graph, nodes):
    runs = []
    for cls in (_Search, _Lockstep):
        s = cls(graph, graph.edge_color, graph.vertex_color, 10 ** 7, "graph_automorphisms")
        s.find_automorphisms()
        runs.append(s)
    cached, lockstep = runs
    assert cached.nodes == lockstep.nodes == nodes[0]
    assert len(cached.gens) == len(lockstep.gens) > 0
    for a, b in zip(cached.gens, lockstep.gens):
        assert np.array_equal(a, b)
    _isomorphism_runs(graph, Recoloring(1, "conj").apply(graph.edge_color), nodes[1])


def test_refuted_recoloring_matches_lockstep():
    # Hoggar's phase table is not isomorphic to its negation, and every
    # child of the root fails refinement: the search refines 256 siblings
    g = encode_sic_graph(construct_sic(sylvester(3), Ring("gf:3")).phases)
    assert _isomorphism_runs(g, Recoloring(-1, "id").apply(g.edge_color), 257) is None


class _Unpruned(_Search):
    """Reference search that prunes nothing below the first path of an
    automorphism search: every child of every node is searched."""

    def _isomorphism(self, state, path):
        if state is None:
            return None
        level, clsB = state
        if level.ncls == self.n:
            return self._leaf(level.cls, clsB)
        for u, child in self._children(level, clsB, np.flatnonzero(clsB == level.cell),
                                       set()):
            f = self._isomorphism(child, path + [u])
            if f is not None:
                return f
        return None


def _pruning_cases():
    for name, graph, _ in _differential_graphs():
        yield pytest.param(graph, id=name)
    for recipe in ("paley1:31", "paley2:17"):
        yield pytest.param(encode_phased_matrix_graph(from_recipe(recipe), "weak"),
                           id=f"{recipe} weak")
    for recipe in ("sylvester:3", "paley1:11"):
        yield pytest.param(encode_phased_matrix_graph(build_tilde(from_recipe(recipe)), "strong"),
                           id=f"{recipe} Ht")


@pytest.mark.parametrize("graph", list(_pruning_cases()))
def test_pruning_keeps_generators(graph):
    runs = []
    for cls in (_Search, _Unpruned):
        s = cls(graph, graph.edge_color, graph.vertex_color, 10 ** 7, "graph_automorphisms")
        s.find_automorphisms()
        runs.append(s)
    pruned, unpruned = runs
    assert pruned.nodes <= unpruned.nodes
    assert len(pruned.gens) == len(unpruned.gens) > 0
    for a, b in zip(pruned.gens, unpruned.gens):
        assert np.array_equal(a, b)


def _hoggar_cover():
    return encode_sic_graph(construct_sic(sylvester(3), Ring("gf:3")).phases)


@pytest.mark.parametrize("gamma", ["id", "conj"])
def test_seeded_refutation_takes_few_nodes(gamma):
    # Hoggar over GF(9) has no eps = -1 coset: unseeded, the search
    # exhausts 257 nodes (test_refuted_recoloring_matches_lockstep); with
    # the base group's generators the root's children fall in one orbit
    g = _hoggar_cover()
    eb = Recoloring(-1, gamma).apply(g.edge_color)
    gens = graph_automorphisms(g).generators
    assert find_isomorphism(g, eb, g.vertex_color, budget=257) is None
    with pytest.raises(BudgetExceeded):
        find_isomorphism(g, eb, g.vertex_color, budget=256)
    assert find_isomorphism(g, eb, g.vertex_color, budget=3, automorphisms=gens) is None


@pytest.mark.parametrize("eps,gamma", [(-1, "id"), (1, "conj"), (-1, "conj")])
def test_seeded_search_finds_the_unseeded_witness(eps, gamma):
    g = encode_sic_graph(construct_sic(sylvester(1), Ring("gf:3")).phases)
    eb = Recoloring(eps, gamma).apply(g.edge_color)
    plain = find_isomorphism(g, eb, g.vertex_color)
    seeded = find_isomorphism(g, eb, g.vertex_color,
                              automorphisms=graph_automorphisms(g).generators)
    assert plain is not None and seeded is not None
    assert np.array_equal(plain.img, seeded.img)


def test_seeded_search_rejects_a_non_automorphism():
    g = _hoggar_cover()
    eb = Recoloring(-1, "id").apply(g.edge_color)
    gens = list(graph_automorphisms(g).generators)
    # swapping two fibers is no automorphism of Hoggar's cover graph
    swap = Permutation(np.r_[4:8, 0:4, 8:g.n])
    with pytest.raises(GraphError, match="not an automorphism"):
        find_isomorphism(g, eb, g.vertex_color, automorphisms=gens + [swap])
    # nor is a permutation of the wrong degree
    with pytest.raises(GraphError, match="not an automorphism"):
        find_isomorphism(g, eb, g.vertex_color, automorphisms=[Permutation.identity(4)])
    # vertex colors are checked too
    vcol = g.vertex_color.copy()
    vcol[:4] = 1
    with pytest.raises(GraphError, match="not an automorphism"):
        find_isomorphism(g, eb, vcol, automorphisms=gens)


def test_target_vertex_colors_the_fixed_side_lacks():
    # B's root classes are read off A's colors; a color A has no vertex of
    # refutes every map at the root, wherever it sorts among A's colors
    g = _path_graph(5)
    g = ColoredDigraph(5, np.array([0, 2, 0, 2, 5]), g.edge_color, 1)
    for vcolb in ([0, 1, 0, 2, 5], [0, 2, 0, 2, 6], [-1, 2, 0, 2, 5], [0, 2, 0, 5, 5]):
        assert find_isomorphism(g, g.edge_color, np.array(vcolb), budget=1) is None
    f = find_isomorphism(g, g.edge_color, g.vertex_color.astype(np.uint8), budget=1)
    assert f is not None and f.is_identity()


def test_seeded_automorphism_orders_match_brute_force():
    # seeds are random non-identity automorphisms from the brute-force list:
    # they head the generator list, and the group is still the whole group
    seeded = 0
    for rng, g in _random_cases(13, 30):
        brute = _isomorphisms(g, g, _all_perms(g.n))
        moving = brute[(brute != np.arange(g.n)).any(axis=1)]
        seeds = [Permutation(moving[i]) for i in rng.integers(0, len(moving), size=2)
                 ] if len(moving) else []
        group = graph_automorphisms(g, automorphisms=seeds)
        assert group.generators[:len(seeds)] == seeds
        assert group.order() == len(brute)
        seeded += bool(seeds)
    assert seeded >= 10


@pytest.mark.parametrize("name,graph,nodes", list(_differential_graphs()))
def test_seeded_automorphism_search_needs_no_more_nodes(name, graph, nodes):
    # seeded with the unseeded search's own generators, the search finds
    # the same group, and its first path prunes from the root
    plain = graph_automorphisms(graph)
    s = _Search(graph, graph.edge_color, graph.vertex_color, 10 ** 7, "graph_automorphisms",
                plain.generators)
    s.find_automorphisms()
    assert s.nodes <= nodes[0]
    found = PermGroup([Permutation(g) for g in s.gens], graph.n)
    assert found.order() == plain.order()
    assert found.generators[:len(plain.generators)] == plain.generators


def test_graph_automorphisms_rejects_a_non_automorphism_seed():
    g = _hoggar_cover()
    gens = list(graph_automorphisms(g).generators)
    # swapping two fibers is no automorphism of Hoggar's cover graph
    swap = Permutation(np.r_[4:8, 0:4, 8:g.n])
    with pytest.raises(GraphError, match="not an automorphism"):
        graph_automorphisms(g, automorphisms=gens + [swap])
    with pytest.raises(GraphError, match="not an automorphism"):
        graph_automorphisms(g, automorphisms=[Permutation.identity(4)])
    # vertex colors are checked too: a fiber recolored, and a seed that
    # moves it
    vcol = g.vertex_color.copy()
    vcol[:4] = 1
    recolored = ColoredDigraph(g.n, vcol, g.edge_color, 4)
    moving = next(p for p in gens if p.img[0] >= 4)
    with pytest.raises(GraphError, match="not an automorphism"):
        graph_automorphisms(recolored, automorphisms=[moving])
