import numpy as np
import pytest

import eqlines.analysis as analysis
import eqlines.autgraph as autgraph
import eqlines.permgroup as permgroup
from eqlines.analysis import (
    AnalysisError,
    EquivalenceWitness,
    Lemma36Certificate,
    hadamard_aut,
    iota_weak_group,
    lemma36_extract,
    sandwich_report,
    sic_aut_parts,
    split_weak_pair,
    tilde_strong_aut,
    verify_strong_matrix_identity,
    verify_weak_matrix_identity,
    weak_equiv_to_strong_sic_witness,
)
from eqlines.autgraph import (
    Recoloring,
    encode_sic_graph,
    find_isomorphism,
    graph_automorphisms,
    project_fiber,
)
from eqlines.exactalg import Ring
from eqlines.hadamard import SignMatrix, from_recipe, paley, sylvester
from eqlines.permgroup import Permutation
from eqlines.sic import construct_sic, verify_sic

H1 = SignMatrix.from_array(np.array([[1, 1], [1, -1]]))
H2 = SignMatrix.from_array(np.array([[1, 1], [-1, 1]]))
H3 = SignMatrix.from_array(np.array([[-1, -1], [1, -1]]))


@pytest.fixture(scope="module")
def d2():
    return construct_sic(H1, Ring("gf:3"))


@pytest.fixture(scope="module")
def d2_parts(d2):
    return sic_aut_parts(d2)


def test_order2_matrix_groups():
    assert [hadamard_aut(m, "strong").order() for m in (H1, H2, H3)] == [1, 2, 2]
    assert [hadamard_aut(m, "weak").order() for m in (H1, H2, H3)] == [4, 4, 4]


def test_weak_pairs_split_cleanly():
    for g in hadamard_aut(H1, "weak").generators:
        pi, sigma = split_weak_pair(g, 2)
        assert verify_weak_matrix_identity(H1, pi, sigma) is not None


def test_strong_identity_checker():
    swap = Permutation([1, 0])
    assert verify_strong_matrix_identity(H2, swap) is not None
    assert verify_strong_matrix_identity(H1, swap) is None
    eps = verify_strong_matrix_identity(H1, Permutation.identity(2))
    assert list(eps) == [1, 1]


def test_d2_sic_groups(d2_parts):
    gs = d2_parts.group("strong")
    gw = d2_parts.group("weak")
    assert gs.order() == gw.order() == 24
    assert gs.is_k_transitive(2)
    # the epsilon = +1 layer holds exactly the even permutations
    base = d2_parts.base_group
    assert base.order() == 12
    assert all(g.parity() == 0 for g in base.generators)
    w = d2_parts.coset_witness[(-1, "id")]
    assert w is not None and w.parity() == 1
    with pytest.raises(AnalysisError):
        d2_parts.group("medium")


def test_lemma_extraction_identity(d2):
    cert = lemma36_extract(d2, d2, Permutation.identity(4))
    assert cert.eps == 1 and cert.gamma == "id"
    assert not cert.omega_exp.any()


def test_lemma_extraction_rejects_non_automorphism(d2):
    # brute force: some 4-point permutations are not equivalences
    rejected = 0
    import itertools
    for perm in itertools.permutations(range(4)):
        try:
            lemma36_extract(d2, d2, Permutation(list(perm)))
        except AnalysisError:
            rejected += 1
    assert rejected == 0  # the d=2 group really is all of S4


def test_lemma_extraction_absorbs_unit_rescaling(d2):
    # multiplying one vector by i is an equivalence; the anchor omega is
    # pinned to eps, so the twist shows up in every other omega
    from eqlines.exactalg import Components
    from eqlines.sic import SicSystem
    re, im = d2.vectors.re.copy(), d2.vectors.im.copy()
    re[0], im[0] = -d2.vectors.im[0] % 3, d2.vectors.re[0]  # i (a + bi) = -b + ai
    twisted = SicSystem(d2.d, d2.ring, Components(re, im, d2.ring), d2.source)
    cert = lemma36_extract(d2, twisted, Permutation.identity(4))
    assert cert.eps == 1 and cert.gamma == "id"
    assert cert.omega_exp[0] == 0
    assert all(cert.omega_exp[1:] == 1)


def test_generators_certify(d2, d2_parts):
    gw = d2_parts.group("weak")
    for g in gw.generators:
        lemma36_extract(d2, d2, g)


def test_iota_lands_in_strong(d2_parts):
    gi = iota_weak_group(H1)
    assert gi.order() == 4
    gs = d2_parts.group("strong")
    for g in gi.generators:
        assert gs.contains(g)


def test_witness_check_and_apply():
    w = EquivalenceWitness(
        pi=Permutation([1, 0]),
        sigma=Permutation([0, 1]),
        row_signs=np.array([1, -1]),
        col_signs=np.array([1, 1]),
    )
    target = w.apply(H1)
    assert w.check(H1, target) is None
    broken = EquivalenceWitness(w.pi, w.sigma, np.array([1, 1]), w.col_signs)
    assert broken.check(H1, target) is not None


def test_weak_equiv_pushes_to_lines():
    rng = np.random.default_rng(11)
    h = sylvester(3)
    for _ in range(5):
        w = EquivalenceWitness(
            pi=Permutation(rng.permutation(8)),
            sigma=Permutation(rng.permutation(8)),
            row_signs=rng.choice([1, -1], size=8),
            col_signs=rng.choice([1, -1], size=8),
        )
        hp = w.apply(h)
        induced = weak_equiv_to_strong_sic_witness(h, hp, w, Ring("gauss"))
        assert induced.perm.n == 64


def test_weak_equiv_rejects_bad_witness():
    w = EquivalenceWitness(
        pi=Permutation.identity(8),
        sigma=Permutation.identity(8),
        row_signs=np.array([-1] + [1] * 7),
        col_signs=np.ones(8, dtype=np.int64),
    )
    with pytest.raises(AnalysisError):
        weak_equiv_to_strong_sic_witness(sylvester(3), sylvester(3), w, Ring("gauss"))


@pytest.mark.parametrize("ring", ["gauss", "gf:7"])
def test_weak_equiv_names_failing_component(monkeypatch, ring):
    """A valid witness, but two components of the target system are
    changed: the error names the first of them in (i, j, t) order."""
    import eqlines.analysis as analysis
    from eqlines.exactalg import Components
    from eqlines.sic import SicSystem

    rng = np.random.default_rng(5)
    h = sylvester(3)
    w = EquivalenceWitness(Permutation(rng.permutation(8)), Permutation(rng.permutation(8)),
                           rng.choice([1, -1], size=8), rng.choice([1, -1], size=8))
    hp = w.apply(h)
    i, j, t = 2, 5, 6  # before (6, 1, 0), which is changed too
    construct = analysis.construct_sic

    def tampered(m, r):
        s = construct(m, r)
        if m is not hp:
            return s
        re, im = s.vectors.re.copy(), s.vectors.im.copy()
        for a, b, c in [(6, 1, 0), (i, j, t)]:
            im[int(w.pi.img[a]) * 8 + int(w.sigma.img[b]), int(w.pi.img[c])] += 1
        return SicSystem(s.d, s.ring, Components(re, im, s.ring), s.source)

    weak_equiv_to_strong_sic_witness(h, hp, w, Ring(ring))
    monkeypatch.setattr(analysis, "construct_sic", tampered)
    with pytest.raises(AnalysisError, match=rf"at vector \({i},{j}\) component {t}$"):
        weak_equiv_to_strong_sic_witness(h, hp, w, Ring(ring))


def test_sandwich_sylvester1(d2):
    rep = sandwich_report(d2)
    chain = list(rep.groups.values())
    for small, big in zip(chain, chain[1:]):
        assert all(big.contains(g) for g in small.generators)
    assert rep.orders["iota_weak_H"] == 4
    assert rep.orders["strong_tilde"] >= 24
    assert not rep.totally_asymmetric
    blob = rep.to_json_dict()
    assert blob["dimension"] == 2
    assert blob["indices"] == [rep.indices[0], rep.indices[1], rep.indices[2]]
    assert blob["groups"]["strong_sic"]["order"] == "24"


def test_sandwich_reuses_given_parts(monkeypatch):
    import eqlines.analysis as analysis
    ring = Ring("gf:3")
    s = construct_sic(H1, ring)
    want = sandwich_report(construct_sic(H1, ring)).to_json_dict()

    def no_construct(*args, **kwargs):
        raise AssertionError("the system was constructed again")

    monkeypatch.setattr(analysis, "construct_sic", no_construct)
    assert sandwich_report(s).to_json_dict() == want


HOGGAR_ORDERS = {"iota_weak_H": 10752, "strong_sic": 387072,
                 "weak_sic": 774144, "strong_tilde": 92897280}


@pytest.mark.parametrize("ring,seed", [("gf:3", 31), ("gauss", 32)])
def test_sandwich_invariant_under_weak_transforms(ring, seed):
    """A weak transform of H relabels the four groups without changing
    them: seeded random transforms of Sylvester's order-8 matrix all give
    Hoggar's chain."""
    rng = np.random.default_rng(seed)
    h = sylvester(3)
    for _ in range(2):
        w = EquivalenceWitness(Permutation(rng.permutation(8)), Permutation(rng.permutation(8)),
                               rng.choice([1, -1], size=8), rng.choice([1, -1], size=8))
        s = construct_sic(w.apply(h), Ring(ring))
        assert verify_sic(s).passed
        rep = sandwich_report(s)
        assert rep.orders == HOGGAR_ORDERS
        assert rep.indices == (36, 2, 120)


def test_sandwich_transitivity_needs_no_stabilizer(monkeypatch):
    """Indices, orders and transitivity degrees all read one cached
    stabilizer chain per group; no group builds a second one.  The
    expected degrees were computed with iterated point stabilizers."""
    built = []

    class CountedChain(permgroup._StabChain):
        def __init__(self, gens, n, start=None):
            super().__init__(gens, n, start)
            built.append(self)

    monkeypatch.setattr(permgroup, "_StabChain", CountedChain)
    rep = sandwich_report(construct_sic(sylvester(3), Ring("gauss")))
    assert rep.transitivity == {"iota_weak_H": 1, "strong_sic": 2,
                                "weak_sic": 2, "strong_tilde": 2}
    assert len(built) == len(rep.groups) == 4
    assert {id(g._chain) for g in rep.groups.values()} == {id(c) for c in built}


def test_tilde_strong_small():
    g = tilde_strong_aut(H1)
    assert g.n == 4
    assert g.order() == 24


def test_order20_cosets_seeded_with_the_base_group(monkeypatch):
    # paley1:19 over GF(9): both eps = -1 cosets are empty, and each took
    # 1,601 nodes to refute before the coset searches were pruned by the
    # base group; now every coset search fits in 10 nodes
    real = analysis.find_isomorphism

    def capped(graph, eb, vcolb, budget, automorphisms):
        return real(graph, eb, vcolb, 10, automorphisms)

    monkeypatch.setattr(analysis, "find_isomorphism", capped)
    parts = sic_aut_parts(construct_sic(paley(19, "I"), Ring("gf:3")))
    assert parts.base_group.order() == 3420
    assert parts.coset_witness[(-1, "id")] is None
    assert parts.coset_witness[(-1, "conj")] is None
    assert parts.coset_witness[(1, "conj")] is not None


class _Recorded(autgraph._Search):
    """A search that records itself and the map it finds."""

    runs: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.runs.append(self)

    def find_isomorphism(self):
        self.found = super().find_isomorphism()
        return self.found


def _record(monkeypatch) -> list:
    """The list that every search started from now on is appended to."""
    runs = []
    monkeypatch.setattr(_Recorded, "runs", runs)
    monkeypatch.setattr(autgraph, "_Search", _Recorded)
    return runs


# node counts of the coset searches, in label order (1, conj), (-1, id),
# (-1, conj)
@pytest.mark.parametrize("recipe,nodes", [("sylvester:3", (7, 2, 2)), ("paley1:19", (4, 3, 3))])
def test_coset_searches_share_one_fixed_side(monkeypatch, recipe, nodes):
    s = construct_sic(from_recipe(recipe), Ring("gf:3"))
    runs, rounds = _record(monkeypatch), []
    real = autgraph._group_classes

    def counted(*args):
        rounds.append(1)
        return real(*args)

    # _group_classes runs only in refinement rounds of A's side
    monkeypatch.setattr(autgraph, "_group_classes", counted)
    sic_aut_parts(s)
    assert [r.name for r in runs] == ["graph_automorphisms"] + ["find_isomorphism"] * 3
    assert tuple(r.nodes for r in runs[1:]) == nodes
    # one list of A's levels, one level per depth, each refined once
    # between the four searches
    levels = runs[0].levels
    assert all(r.levels is levels for r in runs)
    assert [level.depth for level in levels] == list(range(len(levels)))
    assert len(rounds) == sum(len(level.rounds) for level in levels)


@pytest.mark.parametrize("recipe,ring", [("sylvester:1", "gf:3"), ("sylvester:3", "gauss"),
                                         ("sylvester:3", "gf:3"), ("paley1:7", "gf:7")])
def test_shared_searches_match_standalone_searches(monkeypatch, recipe, ring):
    """Each search against the shared fixed side visits the nodes, and
    finds the generators or the map, of the same search run on a graph of
    its own."""
    s = construct_sic(from_recipe(recipe), Ring(ring))
    shared = _record(monkeypatch)
    parts = sic_aut_parts(s)
    graph = encode_sic_graph(s.phases)
    alone = _record(monkeypatch)
    base = graph_automorphisms(graph)
    for eps, gamma in parts.coset_witness:
        f = find_isomorphism(graph, Recoloring(eps, gamma).apply(graph.edge_color),
                             graph.vertex_color, automorphisms=base.generators)
        assert parts.coset_witness[eps, gamma] == (None if f is None else project_fiber(f, 4))
    assert len({id(r.levels) for r in shared}) == 1
    assert len({id(r.levels) for r in alone}) == len(alone) == len(shared) > 1
    assert [r.nodes for r in shared] == [r.nodes for r in alone]
    assert len(shared[0].gens) == len(alone[0].gens) > 0
    assert all(np.array_equal(a, b) for a, b in zip(shared[0].gens, alone[0].gens))
    for a, b in zip(shared[1:], alone[1:]):
        assert (a.found is None) == (b.found is None)
        assert a.found is None or np.array_equal(a.found, b.found)


@pytest.mark.slow
def test_order20_tilde_group_within_10000_nodes():
    # 80,323 nodes without automorphism pruning, 9,343 with it
    assert tilde_strong_aut(paley(19, "I"), budget=10_000).order() == 6840


def _weak_transform_of_sylvester3():
    rng = np.random.default_rng(33)
    w = EquivalenceWitness(Permutation(rng.permutation(8)), Permutation(rng.permutation(8)),
                           rng.choice([1, -1], size=8), rng.choice([1, -1], size=8))
    return w.apply(sylvester(3))


@pytest.mark.parametrize("recipe,ring", [
    ("sylvester:1", "gf:3"), ("sylvester:3", "gauss"), ("sylvester:3", "gf:3"),
    ("sylvester:3", "gf:11"), ("paley1:7", "gf:7"), ("weak transform", "gf:3")])
def test_seeded_chain_equals_the_unseeded_groups(recipe, ring):
    """The sandwich seeds each search with the group below it; each group
    equals the one an unseeded search gives: the same order, orbits and
    transitivity, and each contains the other's generators."""
    h = _weak_transform_of_sylvester3() if recipe == "weak transform" else from_recipe(recipe)
    s = construct_sic(h, Ring(ring))
    rep = sandwich_report(s)
    parts = sic_aut_parts(s)
    plain = {"iota_weak_H": iota_weak_group(h), "strong_sic": parts.group("strong"),
             "weak_sic": parts.group("weak"), "strong_tilde": tilde_strong_aut(h)}
    for name, g in plain.items():
        seeded = rep.groups[name]
        assert seeded.order() == g.order() == rep.orders[name], name
        assert seeded.orbits() == g.orbits(), name
        assert seeded.transitivity_degree(cap=3) == g.transitivity_degree(cap=3), name
        assert all(g.contains(x) for x in seeded.generators), name
        assert all(seeded.contains(x) for x in g.generators), name
    # the seeds head each generator list
    names = list(rep.groups)
    for small, big in zip(names, names[1:]):
        k = len(rep.groups[small].generators)
        assert rep.groups[big].generators[:k] == rep.groups[small].generators


def test_seeded_sandwich_node_counts(monkeypatch):
    """Hoggar over GF(9): iota(weak H) seeds the line-system base search,
    and weak(lines) the search for strong(Ht).  Unseeded, those two take
    41 and 64 nodes; the coset searches are unchanged."""
    s = construct_sic(sylvester(3), Ring("gf:3"))
    runs = _record(monkeypatch)
    sic_aut_parts(s)
    tilde_strong_aut(s.source)
    assert [r.nodes for r in runs] == [41, 7, 2, 2, 64]
    runs.clear()
    sandwich_report(s)
    assert [r.name for r in runs] == (["graph_automorphisms"] * 2 + ["find_isomorphism"] * 3
                                      + ["graph_automorphisms"])
    assert [r.nodes for r in runs] == [43, 16, 7, 2, 2, 30]


def test_a_missing_sign_lift_raises(monkeypatch, d2, d2_parts):
    weak = d2_parts.group("weak")
    assert tilde_strong_aut(H1, subgroup=weak).order() == 24
    monkeypatch.setattr(analysis, "verify_strong_matrix_identity", lambda m, pi: None)
    with pytest.raises(AnalysisError, match="chain of groups is broken"):
        tilde_strong_aut(H1, subgroup=weak)
    with pytest.raises(AnalysisError, match="chain of groups is broken"):
        sandwich_report(d2)


def test_a_missing_phase_lift_raises(monkeypatch, d2):
    iota = iota_weak_group(H1)
    assert sic_aut_parts(d2, subgroup=iota).base_group.order() == 12

    def negated(s, s_prime, pi, gamma_hint=None):
        return Lemma36Certificate(-1, "id", np.zeros(pi.n, dtype=np.int64))

    monkeypatch.setattr(analysis, "lemma36_extract", negated)
    with pytest.raises(AnalysisError, match="chain of groups is broken"):
        sic_aut_parts(d2, subgroup=iota)
    with pytest.raises(AnalysisError, match="chain of groups is broken"):
        sandwich_report(d2)


def test_only_the_strong_matrix_group_takes_a_subgroup():
    with pytest.raises(AnalysisError, match="only the strong group"):
        hadamard_aut(H1, "weak", subgroup=hadamard_aut(H1, "strong"))
