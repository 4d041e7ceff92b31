import itertools

import numpy as np
import pytest

from eqlines.autgraph import (
    BudgetExceeded,
    ColoredDigraph,
    GraphError,
    Recoloring,
    _group_classes,
    _mix,
    _Search,
    color_refine,
    encode_phased_matrix_graph,
    encode_sic_graph,
    find_isomorphism,
    graph_automorphisms,
    graph_isomorphism_to_recolored,
    project_fiber,
)
from eqlines.exactalg import Ring
from eqlines.hadamard import SignMatrix, from_recipe, sylvester
from eqlines.permgroup import Permutation
from eqlines.sic import construct_sic


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


def test_color_refine_separates_path_ends():
    cls, ncls = color_refine(_path_graph(5))
    # a directed path is completely rigid under refinement
    assert ncls == 5


def test_color_refine_cycle_stays_uniform():
    cls, ncls = color_refine(_cycle_graph(6))
    assert ncls == 1


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
    g = encode_sic_graph(s.gram_phases)
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


def test_recolored_search_on_sic_graph():
    s = construct_sic(sylvester(1), Ring("gf:3"))
    g = encode_sic_graph(s.gram_phases)
    f = graph_isomorphism_to_recolored(g, Recoloring(-1, "id"))
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
    assert color_refine(hexagon)[1] == 1
    assert find_isomorphism(hexagon, e, hexagon.vertex_color) is None


class _Lockstep(_Search):
    """Reference search: refines both graphs in lockstep at every node,
    recomputing the first graph's rounds each time instead of caching
    them per depth, and recomputes the first path's orbit closure from
    every vertex reached so far instead of extending it."""

    def _orbit(self, seeds, base, reach):
        reach |= super()._orbit(list(reach) + list(seeds), base, set())
        return reach

    def _refine(self, up, clsB):
        clsA, ncls = self._fixed_input(up)
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
                return self._level(up, [], clsA, ncls), clsB
            ncls = countsA.size


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
    assert color_refine(g)[1] == 1
    assert graph_automorphisms(g).order() == 6


# node counts of the automorphism search and of the conjugation
# isomorphism search, as the lockstep search with a fresh orbit closure
# per candidate gave them; they pin the search tree where the reference
# shares the code under test
def _differential_graphs():
    yield "bicirculant", _bicirculant(), (5, 2)
    yield "sic sylvester:1 gf:3", encode_sic_graph(
        construct_sic(sylvester(1), Ring("gf:3")).gram_phases), (8, 3)
    for recipe in ("sylvester:3", "paley1:7"):
        for mode, nodes in (("weak", (43, 1)), ("strong", (13, 1))):
            yield (f"{recipe} {mode}",
                   encode_phased_matrix_graph(from_recipe(recipe), mode), nodes)


@pytest.mark.parametrize("name,graph,nodes", list(_differential_graphs()))
def test_cached_rounds_match_lockstep_refinement(name, graph, nodes):
    runs = []
    for cls in (_Search, _Lockstep):
        s = cls(graph, graph.edge_color, graph.vertex_color, 10 ** 7, "graph_automorphisms")
        s.find_automorphisms(None, s.rootB, [], True)
        runs.append(s)
    cached, lockstep = runs
    assert cached.nodes == lockstep.nodes == nodes[0]
    assert len(cached.gens) == len(lockstep.gens) > 0
    for a, b in zip(cached.gens, lockstep.gens):
        assert np.array_equal(a, b)
    eb = Recoloring(1, "conj").apply(graph.edge_color)
    maps = []
    for cls in (_Search, _Lockstep):
        s = cls(graph, eb, graph.vertex_color, 10 ** 7, "find_isomorphism")
        maps.append((s.find_isomorphism(None, s.rootB), s.nodes))
    assert maps[0][1] == maps[1][1] == nodes[1]
    assert (maps[0][0] is None) == (maps[1][0] is None)
    if maps[0][0] is not None:
        assert np.array_equal(maps[0][0], maps[1][0])
