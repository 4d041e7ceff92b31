"""End-to-end acceptance checks.

Each test covers one numbered criterion and finishes by printing a
single PASS line (visible with pytest -s or in the captured output);
a failed assertion fails the corresponding criterion.  Heavy group
computations are shared through session fixtures.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from eqlines.analysis import (
    hadamard_aut,
    iota_weak_group,
    lemma36_extract,
    sandwich_report,
    sic_aut_parts,
    split_weak_pair,
    verify_strong_matrix_identity,
    verify_weak_matrix_identity,
    weak_equiv_to_strong_sic_witness,
    EquivalenceWitness,
)
from eqlines.exactalg import Ring, mat_gram
from eqlines.hadamard import (
    SignMatrix,
    check_modular_hadamard,
    from_recipe,
    load_sign_matrix,
    paley,
    sylvester,
)
from eqlines.permgroup import Permutation, subgroup_index
from eqlines.sic import (
    build_tilde,
    construct_sic,
    gram_closed_form,
    scan_dimensions,
    tensor_gram_check,
    verify_sic,
)

FIXDIR = Path(__file__).parent / "fixtures"


def _ok(n, detail=""):
    print(f"criterion {n:2d}: PASS  {detail}".rstrip())


def _random_weak_transform(h, rng):
    d = h.d
    w = EquivalenceWitness(
        pi=Permutation(rng.permutation(d)),
        sigma=Permutation(rng.permutation(d)),
        row_signs=rng.choice([1, -1], size=d),
        col_signs=rng.choice([1, -1], size=d),
    )
    return w, w.apply(h)


# -- shared heavy computations ----------------------------------------------


@pytest.fixture(scope="session")
def hoggar():
    h = sylvester(3)
    ring = Ring("gauss")
    s = construct_sic(h, ring)
    parts = sic_aut_parts(s)
    rep = sandwich_report(h, ring, parts=parts)
    return {"h": h, "sic": s, "parts": parts, "report": rep}


@pytest.fixture(scope="session")
def order20():
    """The three weak-equivalence classes at order 20."""
    out = {}
    for name, h in [
        ("paley1", paley(19, "I")),
        ("paley2_gf9", load_sign_matrix(str(FIXDIR / "order20_paley2_gf9.had"))),
        ("goethals_seidel", load_sign_matrix(str(FIXDIR / "order20_goethals_seidel.had"))),
    ]:
        ring = Ring("gf:3")
        s = construct_sic(h, ring)
        parts = sic_aut_parts(s)
        rep = sandwich_report(h, ring, parts=parts)
        out[name] = {"h": h, "sic": s, "parts": parts, "report": rep}
    return out


@pytest.fixture(scope="session")
def gram_suite():
    """Random admissible (matrix, ring) pairs for the Gram criteria."""
    rng = np.random.default_rng(20260826)
    bases = [
        ("sylvester:1", ["gf:3"]),
        ("sylvester:3", ["gf:3", "gf:7", "gf:11"]),
        ("paley1:7", ["gf:3", "gf:7", "gf:11"]),
        ("kron:sylvester:1,sylvester:2", ["gf:3", "gf:7"]),
        ("paley1:19", ["gf:3"]),
        (str(FIXDIR / "order20_goethals_seidel.had"), ["gf:3"]),
    ]
    pairs = []
    for recipe, rings in bases:
        h0 = from_recipe(recipe)
        for ring_spec in rings:
            _, h = _random_weak_transform(h0, rng)
            pairs.append((h, Ring(ring_spec)))
            if h0.d <= 8:
                _, h = _random_weak_transform(h0, rng)
                pairs.append((h, Ring(ring_spec)))
    assert len(pairs) >= 20
    return [(h, ring, construct_sic(h, ring)) for h, ring in pairs]


# -- criteria ---------------------------------------------------------------


def test_criterion_01_d2_over_f9():
    t0 = time.time()
    h = sylvester(1)
    s = construct_sic(h, Ring("gf:3"))
    want = [[(2, 1), (1, 0)], [(2, 1), (2, 0)], [(1, 0), (2, 1)], [(1, 0), (1, 2)]]
    assert [[(v.re, v.im) for v in vec] for vec in s.vectors] == want
    verdict = verify_sic(s)
    assert verdict.passed
    assert (verdict.a_int % 3, verdict.b_int % 3, verdict.c_int % 3) == (0, 1, 0)
    parts = sic_aut_parts(s)
    gs, gw = parts.group("strong"), parts.group("weak")
    assert gs.order() == gw.order() == 24
    assert gs.is_k_transitive(4)  # order 24 + 4-transitive = all of Sym(4)
    base = parts.base_group
    assert base.order() == 12
    assert all(g.parity() == 0 for g in base.generators)
    w = parts.coset_witness[(-1, "id")]
    assert w is not None and w.parity() == 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(1, f"({elapsed:.2f}s)")


def test_criterion_02_hoggar_sandwich(hoggar):
    verdict = verify_sic(hoggar["sic"])
    assert verdict.passed
    assert (verdict.a_int, verdict.b_int, verdict.c_int) == (12, 16, 96)
    rep = hoggar["report"]
    want = {"iota_weak_H": 10752, "strong_sic": 387072,
            "weak_sic": 774144, "strong_tilde": 92897280}
    assert rep.orders == want
    assert rep.indices == (36, 2, 120)
    assert rep.groups["strong_sic"].is_k_transitive(2)
    gi = rep.groups["iota_weak_H"]
    assert gi.is_transitive() and not gi.is_k_transitive(2)
    _ok(2)


def test_criterion_03_closed_form_gram(gram_suite):
    for h, ring, s in gram_suite:
        d = h.d
        g = mat_gram(s.matrix())
        a = ring.el(12)
        for u in range(d * d):
            assert g[u, u] == a
            for v in range(d * d):
                if u != v:
                    cf = gram_closed_form(h, ring, (u // d, u % d), (v // d, v % d))
                    assert g[u, v] == cf
    _ok(3, f"({len(gram_suite)} pairs)")


def test_criterion_04_tensor_gram(gram_suite, hoggar):
    for _, _, s in gram_suite:
        assert tensor_gram_check(s)
    assert tensor_gram_check(hoggar["sic"])
    _ok(4)


@pytest.mark.slow
def test_criterion_05_order20_classes(order20):
    want_orbits = {"paley1": [20, 380], "paley2_gf9": [40, 360],
                   "goethals_seidel": [80, 320]}
    for name, data in order20.items():
        rep = data["report"]
        gw = rep.groups["weak_sic"]
        assert gw.orbit_sizes() == want_orbits[name], name
        # exactly two layers, the middle index 2
        assert rep.indices == (1, 2, 1), name
    _ok(5)


@pytest.mark.slow
def test_criterion_06_paley19(order20):
    rep = order20["paley1"]["report"]
    gs = rep.groups["strong_sic"]
    gi = rep.groups["iota_weak_H"]
    assert gs.order() == 3420
    assert gs.orbits() == gi.orbits()
    gw = rep.groups["weak_sic"]
    assert gw.order() == 6840
    assert gw.orbit_sizes() == [20, 380]
    diag = sorted(i * 20 + i for i in range(20))
    assert sorted(min(o) for o in gw.orbits()) == [0, 1] and diag in gw.orbits()
    gt = rep.groups["strong_tilde"]
    assert gt.order() == gw.order()
    assert subgroup_index(gt, gw) == 1
    for gen in gt.generators:
        assert gw.contains(gen)
    _ok(6)


def test_criterion_07_order2_strong_classes():
    h1 = SignMatrix.from_array(np.array([[1, 1], [1, -1]]))
    h2 = SignMatrix.from_array(np.array([[1, 1], [-1, 1]]))
    h3 = SignMatrix.from_array(np.array([[-1, -1], [1, -1]]))
    assert [hadamard_aut(m, "strong").group.order() for m in (h1, h2, h3)] == [1, 2, 2]
    assert [hadamard_aut(m, "weak").group.order() for m in (h1, h2, h3)] == [4, 4, 4]
    # pairwise strong inequivalence: the trace is a strong invariant
    traces = [m.trace() for m in (h1, h2, h3)]
    assert len(set(traces)) == 3 and traces == [0, 2, -2]
    _ok(7)


def test_criterion_08_witness_identity():
    rng = np.random.default_rng(8)
    jobs = [(sylvester(1), Ring("gf:3"), 100),
            (sylvester(3), Ring("gauss"), 100),
            (paley(19, "I"), Ring("gf:3"), 100)]
    for h, ring, count in jobs:
        for _ in range(count):
            w, hp = _random_weak_transform(h, rng)
            induced = weak_equiv_to_strong_sic_witness(h, hp, w, ring)
            assert induced.perm.n == h.d ** 2
    _ok(8, "(300 witnesses)")


@pytest.mark.slow
def test_criterion_09_certificate_roundtrip(hoggar, order20):
    cases = [hoggar] + [order20[k] for k in order20]
    # earlier criteria reuse these smaller systems too
    d2 = construct_sic(sylvester(1), Ring("gf:3"))
    cases.append({"h": sylvester(1), "sic": d2,
                  "parts": sic_aut_parts(d2),
                  "report": sandwich_report(sylvester(1), Ring("gf:3"))})
    checked = 0
    for data in cases:
        s, h, rep = data["sic"], data["h"], data["report"]
        for gen in rep.groups["strong_sic"].generators:
            cert = lemma36_extract(s, s, gen)
            assert cert.gamma == "id"
            checked += 1
        for gen in rep.groups["weak_sic"].generators:
            lemma36_extract(s, s, gen)
            checked += 1
        for gen in hadamard_aut(h, "weak").group.generators:
            assert verify_weak_matrix_identity(h, *split_weak_pair(gen, h.d)) is not None
            checked += 1
        ht = build_tilde(h, cap=h.d * h.d)
        for gen in rep.groups["strong_tilde"].generators:
            assert verify_strong_matrix_identity(ht, gen) is not None
            checked += 1
    _ok(9, f"({checked} generators)")


def test_criterion_10_spence_order36():
    missing = [p for p in ("spence36_3.had", "spence36_23.had", "spence36_24.had")
               if not (FIXDIR / p).exists()]
    if missing:
        pytest.skip(f"order-36 fixtures not available: {missing}")
    ring = Ring("gf:7")
    expect = {"spence36_3.had": (1, 2), "spence36_23.had": (1, 1),
              "spence36_24.had": (1, 1)}
    for name, (so, wo) in expect.items():
        s = construct_sic(load_sign_matrix(str(FIXDIR / name)), ring)
        parts = sic_aut_parts(s)
        assert parts.group("strong").order() == so
        assert parts.group("weak").order() == wo
    _ok(10)


def test_criterion_11_scan():
    hits = scan_dimensions(3, 50)
    assert [d for d, _ in hits] == [2, 8, 20, 32, 44]
    for d, recipe in hits:
        m = from_recipe(recipe)
        assert m.d == d
        assert check_modular_hadamard(m, 0).valid
    _ok(11)
