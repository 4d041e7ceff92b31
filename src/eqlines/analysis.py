"""Automorphism groups of sign matrices and of constructed line systems.

Four groups act on the index square [d] x [d]: the embedded weak
automorphism group of the source sign matrix H, the strong and weak
automorphism groups of the line system built from H, and the strong
automorphism group of the order d^2 sign matrix Ht with entries
Ht[(i,j),(k,l)] = H[k,j] H[i,l].  They form an ascending chain, and
sandwich_report computes all four bottom-up, seeding each search with
the group below it, and reports exact indices, orbit structures and
transitivity degrees.

Witness objects make the group memberships independently checkable:
signed-permutation data for matrix equivalences, and (eps, gamma,
omega_i) phase data for line-system equivalences.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autgraph import (
    DEFAULT_BUDGET,
    FixedSide,
    Recoloring,
    encode_phased_matrix_graph,
    encode_sic_graph,
    find_isomorphism,
    graph_automorphisms,
    project_fiber,
)
from .exactalg import Ring, RingSpec
from .hadamard import SignMatrix
from .permgroup import PermGroup, Permutation, iota_embed, subgroup_index
from .sic import SicSystem, build_tilde, construct_sic


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sign matrix groups


def hadamard_aut(m: SignMatrix, strength: str, budget: int = DEFAULT_BUDGET,
                 subgroup: PermGroup | None = None) -> PermGroup:
    """Automorphism group of a sign matrix under signed permutations:
    one simultaneous permutation ("strong") or an independent row and
    column pair ("weak").  Sign vectors are quotiented out (they are
    determined up to a global flip).  strong: permutations of [d].  weak:
    permutations of the disjoint union rows + columns (rows 0..d-1,
    columns d..2d-1), sides preserved.

    subgroup, for "strong" only, is a group of permutations of [d] known
    to lie in the strong group.  Each of its generators pi is lifted to
    the sign cover, (i, s) -> (pi i, s xor [eps_i = -1]) with eps from
    verify_strong_matrix_identity, and seeds the search; AnalysisError is
    raised when one does not lift.  The returned generators are then
    subgroup's, in order, followed by those the search found, and the
    group's stabilizer chain is grown from subgroup's."""
    g = encode_phased_matrix_graph(m, strength)
    seeds = []
    if subgroup is not None:
        if strength != "strong":
            raise AnalysisError("only the strong group takes a subgroup")
        seeds = [_sign_lift(m, pi) for pi in subgroup.generators]
    lifted = graph_automorphisms(g, budget, seeds)
    return PermGroup([project_fiber(p, 2) for p in lifted.generators],
                     lifted.n // 2, subgroup)


def _sign_lift(m: SignMatrix, pi: Permutation) -> Permutation:
    """The strong automorphism pi of m as a permutation of its sign
    cover's vertices i*2 + s: (i, s) -> (pi i, s xor [eps_i = -1])."""
    eps = verify_strong_matrix_identity(m, pi)
    if eps is None:
        raise AnalysisError(f"{pi.as_list()} is not a strong automorphism of the "
                            "sign matrix: the chain of groups is broken")
    return Permutation((2 * pi.img[:, None] + (np.arange(2) + (eps[:, None] < 0)) % 2).ravel())


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
    gens = [iota_embed(*split_weak_pair(g, d))
            for g in hadamard_aut(m, "weak", budget).generators]
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

    @staticmethod
    def from_json_dict(data, d: int) -> "EquivalenceWitness":
        """Read a saved witness between matrices of order d; raises
        AnalysisError when the data is malformed."""
        keys = ("pi", "sigma", "row_signs", "col_signs")
        if not isinstance(data, dict) or not all(k in data for k in keys):
            raise AnalysisError(f"a witness needs the keys {', '.join(keys)}")
        for k in keys:
            v = data[k]
            if not (isinstance(v, list) and len(v) == d
                    and all(type(x) is int for x in v)):
                raise AnalysisError(f"witness {k} must be a list of {d} integers")
        for k in ("pi", "sigma"):
            if sorted(data[k]) != list(range(d)):
                raise AnalysisError(f"witness {k} is not a permutation of 0..{d - 1}")
        for k in ("row_signs", "col_signs"):
            if not set(data[k]) <= {1, -1}:
                raise AnalysisError(f"witness {k} has entries other than 1 and -1")
        return EquivalenceWitness(
            Permutation(data["pi"]), Permutation(data["sigma"]),
            np.array(data["row_signs"], dtype=np.int64),
            np.array(data["col_signs"], dtype=np.int64))

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
    """Decomposition of the weak automorphism group of a line system,
    computed from the verified system's own phase table.

    base_group is the subgroup acting with eps = +1 and trivial field
    automorphism; coset_witness maps each attempted (eps, gamma) label
    to a representative permutation of [d] x [d], or None when that
    coset is empty.  An empty coset is proven by an isomorphism search
    onto the recolored phase table that exhausts its tree, pruned by the
    base group's lifted generators: they are automorphisms of the
    recolored cover graph too, and pruning by them skips only subtrees
    that hold no map (see autgraph._Search).

    When sic_aut_parts is given a subgroup (in a sandwich, iota(weak H)),
    its generators head base_group's generator list, and base_group's
    stabilizer chain is grown from the subgroup's."""

    base_group: PermGroup
    coset_witness: dict[tuple[int, str], Permutation | None] = field(default_factory=dict)
    _groups: dict[str, PermGroup] = field(default_factory=dict, init=False, repr=False,
                                          compare=False)

    def group(self, strength: str) -> PermGroup:
        """Strong or weak automorphism group of the line system as a
        permutation group on [d] x [d]: the base group and the witnesses
        of the realized cosets, those with gamma = id for strong.  Each is
        built once, and each stabilizer chain is grown from the one below:
        strong from the base group's (strong is the base group itself when
        no gamma = id coset is realized), weak from strong's."""
        if strength not in ("strong", "weak"):
            raise AnalysisError(f"unknown strength {strength!r}")
        if strength not in self._groups:
            below = self.base_group if strength == "strong" else self.group("strong")
            extra = [w for (_, gamma), w in self.coset_witness.items()
                     if w is not None and (strength == "weak" or gamma == "id")]
            if strength == "strong" and not extra:
                self._groups[strength] = below
            else:
                gens = list(self.base_group.generators) + extra
                self._groups[strength] = PermGroup(gens, self.base_group.n, below)
        return self._groups[strength]


def _phase_lift(s: SicSystem, pi: Permutation) -> Permutation:
    """The strong automorphism pi of the line system s as a permutation
    of its phase cover's vertices u*4 + a: (u, a) -> (pi u, a + omega_u
    mod 4), with omega from lemma36_extract(s, s, pi, "id"), which raises
    AnalysisError itself when pi is no weak automorphism at all."""
    cert = lemma36_extract(s, s, pi, "id")
    if cert.eps != 1:
        raise AnalysisError(f"{pi.as_list()} is not a strong automorphism of the line "
                            "system: the chain of groups is broken")
    return Permutation((4 * pi.img[:, None] + (np.arange(4) + cert.omega_exp[:, None]) % 4)
                       .ravel())


def sic_aut_parts(s: SicSystem, budget: int = DEFAULT_BUDGET,
                  subgroup: PermGroup | None = None) -> SicAutParts:
    """Base group plus coset representatives for every recoloring the
    characteristic admits.  The global sign eps = -1 can only occur in
    characteristic 3, so it is attempted exactly there; the conjugation
    twist is always attempted (it matters for the weak group only).

    The base search and the coset searches run against one FixedSide of
    the phase table's cover graph, so its levels are refined once between
    them; each search keeps its own node count and budget.

    subgroup is a group on [d] x [d] known to lie in the base group, such
    as iota(weak H).  Each of its generators is lifted to the cover (see
    _phase_lift) and seeds the base search, which checks it against the
    full color matrices; AnalysisError is raised when one does not lift.

    s must be a verified system (see sic.verify_sic): the searches read
    the phase table of its vectors (s.phases) and do not check the axioms."""
    graph = encode_sic_graph(s.phases)
    side = FixedSide(graph)
    seeds = [] if subgroup is None else [_phase_lift(s, pi) for pi in subgroup.generators]
    lifted = graph_automorphisms(side, budget, seeds)
    n2 = s.d ** 2
    base = PermGroup([project_fiber(g, 4) for g in lifted.generators], n2, subgroup)
    parts = SicAutParts(base)
    labels = [(1, "conj")]
    if s.ring.char == 3:
        labels += [(-1, "id"), (-1, "conj")]
    for eps, gamma in labels:
        # a recoloring is a bijection on colors, so the recolored graph has
        # the base graph's automorphisms, and they prune its search
        f = find_isomorphism(side, Recoloring(eps, gamma).apply(graph.edge_color),
                             graph.vertex_color, budget, lifted.generators)
        parts.coset_witness[(eps, gamma)] = None if f is None else project_fiber(f, 4)
    return parts


def tilde_strong_aut(h: SignMatrix, budget: int = DEFAULT_BUDGET,
                     subgroup: PermGroup | None = None) -> PermGroup:
    """Strong automorphism group of the induced order d^2 sign matrix,
    as a permutation group on [d] x [d].  subgroup, such as weak(lines)
    in a sandwich, seeds the search as in hadamard_aut: its generators
    head the returned list, and its chain is the start of this one's."""
    ht = build_tilde(h)
    return hadamard_aut(ht, "strong", budget, subgroup)


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
    T = s.phases.astype(np.int64)
    Tp = s_prime.phases.astype(np.int64)
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
    x, xp = construct_sic(h, ring).vectors, construct_sic(h_prime, ring).vectors
    # over the (i, j, t) axes: x'[pi i, sigma j][pi t] - c_j r_t x[i, j][t]
    pick = np.ix_(w.pi.img, w.sigma.img, w.pi.img)
    sign = w.col_signs[None, :, None] * w.row_signs[None, None, :]
    diff = [a.reshape(d, d, d)[pick] - sign * b.reshape(d, d, d)
            for a, b in ((xp.re, x.re), (xp.im, x.im))]
    if ring.char:
        diff = [part % ring.char for part in diff]
    bad = np.argwhere((diff[0] != 0) | (diff[1] != 0))
    if len(bad):
        i, j, t = (int(v) for v in bad[0])
        raise AnalysisError(f"identity fails at vector ({i},{j}) component {t}")
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


def sandwich_report(s: SicSystem, budget: int = DEFAULT_BUDGET) -> SandwichReport:
    """Compute the chain iota(weak(H)) <= strong(lines) <= weak(lines)
    <= strong(Ht) on [d] x [d] for the line system s built from H =
    s.source, and report exact orders, indices, orbit partitions and
    transitivity degrees.

    The chain is searched bottom-up.  iota(weak H) seeds the base search
    of the line-system groups, and weak(lines) seeds the search for
    strong(Ht): each seed is lifted to the higher search's cover graph
    and checked there against the full color matrices, and that check is
    what certifies each inclusion.  The seeds head each group's generator
    list, and each group's stabilizer chain is grown from the one below.

    Like sic_aut_parts, this expects s to be verified (see
    sic.verify_sic); it does not check the axioms.  The two line-system
    groups are computed from the phase table of its vectors (s.phases)."""
    h = s.source
    iota = iota_weak_group(h, budget)
    parts = sic_aut_parts(s, budget, iota)
    weak = parts.group("weak")
    chain = {
        "iota_weak_H": iota,
        "strong_sic": parts.group("strong"),
        "weak_sic": weak,
        "strong_tilde": tilde_strong_aut(h, budget, weak),
    }
    names = list(chain)
    # each group's generators begin with the smaller group's, so the sift
    # of subgroup_index is now trivially true: the seed checks above
    # certify the inclusions, and it reads off the index
    indices = tuple(subgroup_index(chain[big], chain[small])
                    for small, big in zip(names, names[1:]))
    orders = {name: g.order() for name, g in chain.items()}
    orbits = {name: g.orbits() for name, g in chain.items()}
    transitivity = {name: g.transitivity_degree(cap=3) for name, g in chain.items()}
    return SandwichReport(
        d=s.d,
        ring=s.ring.spec,
        groups=chain,
        orders=orders,
        indices=indices,
        orbits=orbits,
        transitivity=transitivity,
        totally_asymmetric=orders["weak_sic"] == 1,
    )
