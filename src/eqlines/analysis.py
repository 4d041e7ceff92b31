"""Automorphism groups of sign matrices and of constructed line systems.

Four groups act on the index square [d] x [d]: the embedded weak
automorphism group of the source sign matrix H, the strong and weak
automorphism groups of the line system built from H, and the strong
automorphism group of the order d^2 sign matrix Ht with entries
Ht[(i,j),(k,l)] = H[k,j] H[i,l].  They form an ascending chain, and
sandwich_report computes all four, certifies the inclusions, and
reports exact indices, orbit structures and transitivity degrees.

Witness objects make the group memberships independently checkable:
signed-permutation data for matrix equivalences, and (eps, gamma,
omega_i) phase data for line-system equivalences.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autgraph import (
    ColoredDigraph,
    Recoloring,
    encode_phased_matrix_graph,
    encode_sic_graph,
    graph_automorphisms,
    graph_isomorphism_to_recolored,
    project_fiber,
)
from .exactalg import Ring, RingSpec
from .hadamard import SignMatrix
from .permgroup import PermGroup, Permutation, iota_embed, subgroup_index
from .sic import SicSystem, build_tilde, construct_sic

DEFAULT_BUDGET = 10 ** 7


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sign matrix groups


@dataclass
class HadamardAutResult:
    group: PermGroup
    """strong: permutations of [d].  weak: permutations of the disjoint
    union rows + columns (rows 0..d-1, columns d..2d-1), sides preserved."""
    lifted: PermGroup


def hadamard_aut(m: SignMatrix, strength: str, budget: int = DEFAULT_BUDGET) -> HadamardAutResult:
    """Automorphism group of a sign matrix under signed permutations:
    one simultaneous permutation ("strong") or an independent row and
    column pair ("weak").  Sign vectors are quotiented out (they are
    determined up to a global flip)."""
    g = encode_phased_matrix_graph(m, strength)
    lifted = graph_automorphisms(g, budget)
    proj = PermGroup([project_fiber(p, 2) for p in lifted.generators],
                     lifted.n // 2)
    return HadamardAutResult(proj, lifted)


def split_weak_pair(g: Permutation, d: int) -> tuple[Permutation, Permutation]:
    """Row and column parts of a weak automorphism stored on rows+cols."""
    if g.n != 2 * d:
        raise AnalysisError("not a rows+columns permutation")
    pi = Permutation(g.img[:d])
    sigma = Permutation(g.img[d:] - d)
    return pi, sigma


def iota_weak_group(m: SignMatrix, budget: int = DEFAULT_BUDGET) -> PermGroup:
    """Image of the weak automorphism group of m inside Sym([d] x [d])
    under (pi, sigma) -> ((i,j) -> (pi i, sigma j))."""
    d = m.d
    res = hadamard_aut(m, "weak", budget)
    gens = [iota_embed(*split_weak_pair(g, d)) for g in res.group.generators]
    return PermGroup(gens, d * d)


def verify_strong_matrix_identity(m: SignMatrix, pi: Permutation):
    """Sign vector eps with m[pi i, pi j] = eps_i eps_j m[i, j] for all
    i, j, or None.  eps is normalized by eps_0 = +1."""
    H = m.array.astype(np.int64)
    r = H[np.ix_(pi.img, pi.img)] * H
    eps = r[:, 0] * r[0, 0]
    if np.array_equal(r, eps[:, None] * eps[None, :]):
        return eps
    return None


def verify_weak_matrix_identity(m: SignMatrix, pi: Permutation, sigma: Permutation):
    """Sign vectors (eps, eps') with m[pi i, sigma j] = eps_i eps'_j m[i, j],
    or None.  Normalized by eps_0 = +1."""
    H = m.array.astype(np.int64)
    r = H[np.ix_(pi.img, sigma.img)] * H
    eps = r[:, 0] * r[0, 0]
    epsp = r[0, :]
    if np.array_equal(r, eps[:, None] * epsp[None, :]):
        return eps, epsp
    return None


@dataclass
class EquivalenceWitness:
    """Signed row/column permutation data: target[pi i, sigma j] =
    row_signs_i col_signs_j source[i, j]."""

    pi: Permutation
    sigma: Permutation
    row_signs: np.ndarray
    col_signs: np.ndarray

    def check(self, source: SignMatrix, target: SignMatrix):
        """First violated (i, j) or None."""
        s, t = source.array.astype(np.int64), target.array.astype(np.int64)
        want = self.row_signs[:, None] * self.col_signs[None, :] * s
        got = t[np.ix_(self.pi.img, self.sigma.img)]
        bad = np.argwhere(got != want)
        return None if bad.size == 0 else (int(bad[0][0]), int(bad[0][1]))

    def apply(self, source: SignMatrix) -> SignMatrix:
        s = source.array.astype(np.int64)
        out = np.empty_like(s)
        out[np.ix_(self.pi.img, self.sigma.img)] = (
            self.row_signs[:, None] * self.col_signs[None, :] * s)
        return SignMatrix.from_array(out)


# ---------------------------------------------------------------------------
# line system groups


@dataclass
class SicAutParts:
    """Decomposition of the weak automorphism group of a line system.

    base_group is the subgroup acting with eps = +1 and trivial field
    automorphism; coset_witness maps each attempted (eps, gamma) label
    to a representative permutation of [d] x [d], or None when that
    coset is empty."""

    system: SicSystem
    graph: ColoredDigraph
    base_group: PermGroup
    coset_witness: dict[tuple[int, str], Permutation | None] = field(default_factory=dict)

    def labels_realized(self, strength: str) -> list[tuple[int, str]]:
        ok = [(1, "id")]
        for label, w in self.coset_witness.items():
            if w is None:
                continue
            if strength == "strong" and label[1] != "id":
                continue
            ok.append(label)
        return ok

    def group(self, strength: str) -> PermGroup:
        gens = list(self.base_group.generators)
        for label in self.labels_realized(strength):
            if label != (1, "id"):
                gens.append(self.coset_witness[label])
        return PermGroup(gens, self.system.d ** 2)


def sic_aut_parts(s: SicSystem, budget: int = DEFAULT_BUDGET) -> SicAutParts:
    """Base group plus coset representatives for every recoloring the
    characteristic admits.  The global sign eps = -1 can only occur in
    characteristic 3, so it is attempted exactly there; the conjugation
    twist is always attempted (it matters for the weak group only).

    s must be a verified system (see sic.verify_sic): the searches read
    its phase table and do not check the axioms."""
    graph = encode_sic_graph(s.gram_phases)
    lifted = graph_automorphisms(graph, budget)
    n2 = s.d ** 2
    base = PermGroup([project_fiber(g, 4) for g in lifted.generators], n2)
    parts = SicAutParts(s, graph, base)
    labels = [(1, "conj")]
    if s.ring.char == 3:
        labels += [(-1, "id"), (-1, "conj")]
    for eps, gamma in labels:
        f = graph_isomorphism_to_recolored(graph, Recoloring(eps, gamma), budget)
        parts.coset_witness[(eps, gamma)] = None if f is None else project_fiber(f, 4)
    return parts


def sic_aut(s: SicSystem, strength: str, budget: int = DEFAULT_BUDGET,
            parts: SicAutParts | None = None) -> PermGroup:
    """Strong or weak automorphism group of the line system as a
    permutation group on [d] x [d]."""
    if strength not in ("strong", "weak"):
        raise AnalysisError(f"unknown strength {strength!r}")
    if parts is None:
        parts = sic_aut_parts(s, budget)
    return parts.group(strength)


def tilde_strong_aut(h: SignMatrix, budget: int = DEFAULT_BUDGET) -> PermGroup:
    """Strong automorphism group of the induced order d^2 sign matrix,
    as a permutation group on [d] x [d]."""
    ht = build_tilde(h, cap=max(h.d * h.d, 256))
    res = hadamard_aut(ht, "strong", budget)
    return res.group


# ---------------------------------------------------------------------------
# phase certificates (line-system side)


@dataclass
class Lemma36Certificate:
    eps: int
    gamma: str
    omega_exp: np.ndarray
    """omega_i = i^omega_exp[i]; the certified relation is
    (x'_{pi u}, x'_{pi v}) = eps * omega_u * conj(omega_v) * (x_u, x_v)^gamma."""


def lemma36_extract(s: SicSystem, s_prime: SicSystem, pi: Permutation,
                    gamma_hint: str | None = None) -> Lemma36Certificate:
    """Recover the phase data certifying pi as a weak equivalence of
    line systems, or raise AnalysisError if no admissible (eps, gamma)
    satisfies the relation.  eps = -1 is admissible only in
    characteristic 3."""
    T = s.observed_phases.astype(np.int64)
    Tp = s_prime.observed_phases.astype(np.int64)
    n = T.shape[0]
    if pi.n != n:
        raise AnalysisError("permutation degree mismatch")
    off = ~np.eye(n, dtype=bool)
    tpp = Tp[np.ix_(pi.img, pi.img)]
    gammas = [gamma_hint] if gamma_hint else ["id", "conj"]
    epss = [0, 2] if s.ring.char == 3 else [0]
    k = 0
    for gamma in gammas:
        sign = 1 if gamma == "id" else -1
        for e2 in epss:
            w = (tpp[:, k] - sign * T[:, k]) % 4
            w[k] = e2
            resid = (tpp - sign * T - w[:, None] + w[None, :] - e2) % 4
            if not resid[off].any():
                return Lemma36Certificate(1 if e2 == 0 else -1, gamma, w)
    raise AnalysisError("no admissible (eps, gamma, omega) data: not a weak equivalence")


@dataclass
class InducedStrongEquivalence:
    """Index map iota(pi, sigma) on [d] x [d] together with the scalar
    attached to each source vector: x_target[pi i, sigma j] =
    scalar[j] * (P D x_source[i, j]), P the permutation matrix of pi
    and D = diag(row_signs)."""

    perm: Permutation
    row_signs: np.ndarray
    col_scalars: np.ndarray


def weak_equiv_to_strong_sic_witness(h: SignMatrix, h_prime: SignMatrix,
                                     w: EquivalenceWitness, ring) -> InducedStrongEquivalence:
    """Push a weak sign-matrix equivalence h -> h_prime down to the line
    systems: verifies x'[pi i, sigma j][pi t] = col_sign_j row_sign_t
    x[i, j][t] entrywise on the two constructed systems (x from h, x'
    from h_prime) and returns the induced strong equivalence data."""
    if not isinstance(ring, Ring):
        ring = Ring(ring)
    bad = w.check(h, h_prime)
    if bad is not None:
        raise AnalysisError(f"invalid weak equivalence witness at entry {bad}")
    d = h.d
    s = construct_sic(h, ring)
    sp = construct_sic(h_prime, ring)
    for i in range(d):
        for j in range(d):
            u = i * d + j
            target = sp.vectors[int(w.pi.img[i]) * d + int(w.sigma.img[j])]
            src = s.vectors[u]
            cj = int(w.col_signs[j])
            for t in range(d):
                lhs = target[int(w.pi.img[t])]
                rhs = src[t] if cj * int(w.row_signs[t]) == 1 else -src[t]
                if lhs != rhs:
                    raise AnalysisError(
                        f"identity fails at vector ({i},{j}) component {t}")
    return InducedStrongEquivalence(iota_embed(w.pi, w.sigma),
                                    w.row_signs.copy(), w.col_signs.copy())


# ---------------------------------------------------------------------------
# the sandwich


@dataclass
class SandwichReport:
    d: int
    ring: RingSpec
    groups: dict[str, PermGroup]
    orders: dict[str, int]
    indices: tuple[int, int, int]
    orbits: dict[str, list[list[int]]]
    transitivity: dict[str, int]
    totally_asymmetric: bool

    def to_json_dict(self) -> dict:
        gd = {}
        for name in ("iota_weak_H", "strong_sic", "weak_sic", "strong_tilde"):
            g = self.groups[name]
            gd[name] = {
                "order": str(self.orders[name]),
                "generators": [gen.as_list() for gen in g.generators],
                "orbits": self.orbits[name],
                "transitivity": self.transitivity[name],
            }
        return {
            "dimension": self.d,
            "ring": str(self.ring),
            "groups": gd,
            "indices": list(self.indices),
            "totally_asymmetric": self.totally_asymmetric,
        }


def sandwich_report(h: SignMatrix, ring, budget: int = DEFAULT_BUDGET,
                    parts: SicAutParts | None = None) -> SandwichReport:
    """Compute the chain iota(weak(H)) <= strong(lines) <= weak(lines)
    <= strong(Ht) on [d] x [d], certify each inclusion by generator
    membership, and report exact orders, indices, orbit partitions and
    transitivity degrees.

    Like sic_aut_parts, this expects the line system of h over ring to
    be verified (see sic.verify_sic); it does not check the axioms.
    Without parts, the system is constructed here."""
    if not isinstance(ring, Ring):
        ring = Ring(ring)
    if parts is None:
        parts = sic_aut_parts(construct_sic(h, ring), budget)
    chain = {
        "iota_weak_H": iota_weak_group(h, budget),
        "strong_sic": parts.group("strong"),
        "weak_sic": parts.group("weak"),
        "strong_tilde": tilde_strong_aut(h, budget),
    }
    names = list(chain)
    indices = tuple(subgroup_index(chain[big], chain[small])
                    for small, big in zip(names, names[1:]))
    orders = {name: g.order() for name, g in chain.items()}
    orbits = {name: g.orbits() for name, g in chain.items()}
    transitivity = {name: g.transitivity_degree(cap=3) for name, g in chain.items()}
    return SandwichReport(
        d=h.d,
        ring=ring.spec,
        groups=chain,
        orders=orders,
        indices=indices,
        orbits=orbits,
        transitivity=transitivity,
        totally_asymmetric=orders["weak_sic"] == 1,
    )
