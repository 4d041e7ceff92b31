import numpy as np
import pytest
from sympy.combinatorics.perm_groups import PermutationGroup

from eqlines.analysis import (
    AnalysisError,
    EquivalenceWitness,
    Lemma36Certificate,
    hadamard_aut,
    iota_weak_group,
    lemma36_extract,
    sandwich_report,
    sic_aut,
    sic_aut_parts,
    split_weak_pair,
    tilde_strong_aut,
    verify_strong_matrix_identity,
    verify_weak_matrix_identity,
    weak_equiv_to_strong_sic_witness,
)
from eqlines.exactalg import Ring
from eqlines.hadamard import SignMatrix, sylvester
from eqlines.permgroup import Permutation
from eqlines.sic import construct_sic

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
    assert [hadamard_aut(m, "strong").group.order() for m in (H1, H2, H3)] == [1, 2, 2]
    assert [hadamard_aut(m, "weak").group.order() for m in (H1, H2, H3)] == [4, 4, 4]


def test_weak_pairs_split_cleanly():
    res = hadamard_aut(H1, "weak")
    for g in res.group.generators:
        pi, sigma = split_weak_pair(g, 2)
        assert verify_weak_matrix_identity(H1, pi, sigma) is not None


def test_strong_identity_checker():
    swap = Permutation([1, 0])
    assert verify_strong_matrix_identity(H2, swap) is not None
    assert verify_strong_matrix_identity(H1, swap) is None
    eps = verify_strong_matrix_identity(H1, Permutation.identity(2))
    assert list(eps) == [1, 1]


def test_d2_sic_groups(d2, d2_parts):
    gs = sic_aut(d2, "strong", parts=d2_parts)
    gw = sic_aut(d2, "weak", parts=d2_parts)
    assert gs.order() == gw.order() == 24
    assert gs.is_k_transitive(2)
    # the epsilon = +1 layer holds exactly the even permutations
    base = d2_parts.base_group
    assert base.order() == 12
    assert all(g.parity() == 0 for g in base.generators)
    w = d2_parts.coset_witness[(-1, "id")]
    assert w is not None and w.parity() == 1


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
    from eqlines.sic import SicSystem
    vectors = [list(v) for v in d2.vectors]
    vectors[0] = [x * d2.ring.el(0, 1) for x in vectors[0]]
    twisted = SicSystem(d2.d, d2.ring, tuple(tuple(v) for v in vectors),
                        d2.source, d2.z)
    cert = lemma36_extract(d2, twisted, Permutation.identity(4))
    assert cert.eps == 1 and cert.gamma == "id"
    assert cert.omega_exp[0] == 0
    assert all(cert.omega_exp[1:] == 1)


def test_generators_certify(d2, d2_parts):
    gw = sic_aut(d2, "weak", parts=d2_parts)
    for g in gw.generators:
        lemma36_extract(d2, d2, g)


def test_iota_lands_in_strong(d2, d2_parts):
    gi = iota_weak_group(H1)
    assert gi.order() == 4
    gs = sic_aut(d2, "strong", parts=d2_parts)
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


def test_sandwich_sylvester1():
    rep = sandwich_report(H1, Ring("gf:3"))
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
    want = sandwich_report(H1, ring).to_json_dict()

    def no_construct(*args, **kwargs):
        raise AssertionError("the system was constructed again")

    monkeypatch.setattr(analysis, "construct_sic", no_construct)
    assert sandwich_report(H1, ring, parts=sic_aut_parts(s)).to_json_dict() == want


def test_sandwich_transitivity_needs_no_stabilizer(monkeypatch):
    """Transitivity degrees come from the cached stabilizer chain; no
    further point stabilizer is built.  The expected degrees were computed
    with iterated point stabilizers."""
    def no_stabilizer(*args, **kwargs):
        raise AssertionError("a point stabilizer was computed")

    monkeypatch.setattr(PermutationGroup, "stabilizer", no_stabilizer)
    rep = sandwich_report(sylvester(3), Ring("gauss"))
    assert rep.transitivity == {"iota_weak_H": 1, "strong_sic": 2,
                                "weak_sic": 2, "strong_tilde": 2}


def test_tilde_strong_small():
    g = tilde_strong_aut(H1)
    assert g.n == 4
    assert g.order() == 24
