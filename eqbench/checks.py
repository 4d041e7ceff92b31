"""Correctness checks on the CLI's JSON outputs, made apart from eqlines.

Nothing here imports eqlines.  Line systems are checked against the four
axioms with exact integer arithmetic, and against the benchmark's own
construction x_ij = h_j o (1 + z e_i), z = -2 - 2i.  Group orders are
compared with closed forms and stated values, and every reported
generator is re-checked against a signed-matrix identity or a phase
relation computed here.  Each check returns a list of problems; an empty
list means the output is correct.
"""
from __future__ import annotations

import numpy as np

A, B, C = 12, 16, 96
# Prime = 3 (mod 4) used to bound the rank over Q(i) from below: a rank
# of d modulo Q is a rank of d over Q(i) for Gaussian-integer vectors.
Q = 2 ** 31 - 1


def ring_char(ring: str) -> int:
    return int(ring[3:]) if ring.startswith("gf:") else 0


def construct(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts (d^2 x d, rows (i, j) row-major) of the
    vectors x_ij[t] = H[t, j] * (1 + z [t == i]) over the integers."""
    d = h.shape[0]
    re = np.repeat(h.T[None, :, :], d, axis=0).astype(np.int64)  # [i, j, t] = H[t, j]
    im = np.zeros_like(re)
    ii = np.arange(d)
    im[ii, :, ii] = -2 * re[ii, :, ii]   # 1 + z = -1 - 2i
    re[ii, :, ii] *= -1
    return re.reshape(d * d, d), im.reshape(d * d, d)


def _dtype_for(bound: int):
    """int64 when every value up to ``bound`` is exact in it, else Python ints."""
    return np.int64 if bound < 2 ** 62 else object


def _zero(x, p):
    return (x % p == 0) if p else (x == 0)


def rank_gf(re, im, p: int) -> int:
    """Rank over GF(p^2) = GF(p)[i] of the matrix re + i im, by elimination."""
    dt = _dtype_for(2 * p * p)
    a = np.array(re % p, dtype=dt)
    b = np.array(im % p, dtype=dt)
    used = np.zeros(a.shape[0], dtype=bool)
    rank = 0
    for c in range(a.shape[1]):
        rows = np.flatnonzero(((a[:, c] != 0) | (b[:, c] != 0)) & ~used)
        if rows.size == 0:
            continue
        r = int(rows[0])
        used[r] = True
        rank += 1
        pa, pb = int(a[r, c]), int(b[r, c])
        inv = pow((pa * pa + pb * pb) % p, -1, p)
        ia, ib = pa * inv % p, -pb * inv % p
        fa = (a[:, c] * ia - b[:, c] * ib) % p
        fb = (a[:, c] * ib + b[:, c] * ia) % p
        fa[r] = fb[r] = 0
        ra, rb = a[r].copy(), b[r].copy()
        a = (a - (fa[:, None] * ra[None, :] - fb[:, None] * rb[None, :]) % p) % p
        b = (b - (fa[:, None] * rb[None, :] + fb[:, None] * ra[None, :]) % p) % p
    return rank


def check_line_system(payload: dict, h: np.ndarray, ring: str,
                      verdict: bool = True) -> list[str]:
    """A `sic build` payload: provenance, the construction, and the axioms
    (a) (x, x) = 12, (b) (x, y)(y, x) = 16, (c) sum x x* = 96 I, (d) rank d.
    With ``verdict`` the program's own verdict must be a pass as well."""
    d, p = h.shape[0], ring_char(ring)
    probs = []
    if payload.get("d") != d or payload.get("ring") != ring:
        probs.append(f"header d={payload.get('d')} ring={payload.get('ring')}")
    vec = np.array(payload.get("vectors", []), dtype=object)
    if vec.shape != (d * d, d, 2):
        return probs + [f"vectors have shape {vec.shape}"]
    if not all(type(x) is int for x in vec.flat):
        return probs + ["vector components are not integers"]
    if p:
        vec = np.where(vec > p // 2, vec - p, vec)  # balanced residues
    bound = max(abs(int(x)) for x in vec.flat)
    gram_bound = 2 * d * bound * bound
    dt = _dtype_for(2 * gram_bound * gram_bound + C)
    re, im = vec[..., 0].astype(dt), vec[..., 1].astype(dt)
    cre, cim = construct(h)
    if not (_zero(re - cre.astype(dt), p).all() and _zero(im - cim.astype(dt), p).all()):
        probs.append("vectors differ from x_ij = h_j o (1 + z e_i)")
    gre = re @ re.T + im @ im.T           # (x_u, x_v) = sum conj(x_u) x_v
    gim = re @ im.T - im @ re.T
    if not (_zero(np.diag(gre) - A, p).all() and _zero(np.diag(gim), p).all()):
        probs.append("axiom a: some (x, x) != 12")
    off = ~np.eye(d * d, dtype=bool)
    if not _zero((gre * gre + gim * gim - B)[off], p).all():
        probs.append("axiom b: some (x, y)(y, x) != 16")
    sre = re.T @ re + im.T @ im
    sim = im.T @ re - re.T @ im
    if not (_zero(sre - C * np.eye(d, dtype=dt), p).all() and _zero(sim, p).all()):
        probs.append("axiom c: sum x x* != 96 I")
    if rank_gf(re, im, p or Q) != d:
        probs.append("axiom d: rank below d")
    said = payload.get("verdict", {})
    if verdict and [said.get(k) for k in ("passed", "a", "b", "c")] != [True, A, B, C]:
        probs.append(f"verdict {said}")
    return probs


def phase_table(h: np.ndarray, p: int) -> np.ndarray:
    """T[u, v] in Z/4 with (x_u, x_v) = 4 i^T[u, v] in the ring (u != v)."""
    re, im = construct(h)
    gre = re @ re.T + im @ im.T
    gim = re @ im.T - im @ re.T
    n = re.shape[0]
    t = np.full((n, n), -1, dtype=np.int64)
    for k, (a, b) in enumerate(((4, 0), (0, 4), (-4, 0), (0, -4))):
        hit = _zero(gre - a, p) & _zero(gim - b, p) if p else (gre == a) & (gim == b)
        t[hit] = k
    np.fill_diagonal(t, 0)
    if (t < 0).any():
        raise ValueError("inner product outside 4 i^k")
    return t


def phase_relation(t: np.ndarray, g: np.ndarray, shifts, signs) -> bool:
    """Is there (e, s, omega) with T[g u, g v] = e + omega_u - omega_v + s T[u, v]
    off the diagonal, e in shifts (2 for the sign -1), s in signs (-1 for
    conjugation)?"""
    tg = t[np.ix_(g, g)]
    off = ~np.eye(t.shape[0], dtype=bool)
    for s in signs:
        for e in shifts:
            w = (tg[:, 0] - e - s * t[:, 0]) % 4
            w[0] = 0
            if not ((tg - e - s * t - w[:, None] + w[None, :]) % 4)[off].any():
                return True
    return False


def signed_pair(m: np.ndarray, pi: np.ndarray, sigma: np.ndarray) -> bool:
    """Are there signs eps, eps' with M[pi i, sigma j] = eps_i eps'_j M[i, j]?"""
    r = m[np.ix_(pi, sigma)] * m
    return bool(np.array_equal(r, (r[:, 0] * r[0, 0])[:, None] * r[0, :][None, :]))


def signed_strong(m: np.ndarray, g: np.ndarray) -> bool:
    """Are there signs eps with M[g u, g v] = eps_u eps_v M[u, v]?"""
    r = m[np.ix_(g, g)] * m
    eps = r[:, 0] * r[0, 0]
    return bool(np.array_equal(r, eps[:, None] * eps[None, :]))


def orbits(gens: list[np.ndarray], n: int) -> list[list[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for a in range(n):
            ra, rb = find(a), find(int(g[a]))
            if ra != rb:
                parent[ra] = rb
    out: dict[int, list[int]] = {}
    for a in range(n):
        out.setdefault(find(a), []).append(a)
    return sorted(out.values(), key=lambda o: o[0])


def _perms(gens, n) -> list[np.ndarray] | None:
    out = []
    for g in gens:
        a = np.asarray(g, dtype=np.int64)
        if a.shape != (n,) or not np.array_equal(np.sort(a), np.arange(n)):
            return None
        out.append(a)
    return out


def tilde(h: np.ndarray) -> np.ndarray:
    """Ht[(i, j), (k, l)] = H[k, j] H[i, l], row-major indices."""
    d = h.shape[0]
    return np.einsum("kj,il->ijkl", h, h).reshape(d * d, d * d)


def _weak_rows_cols(h, g) -> bool:
    d = h.shape[0]
    pi, sigma = g[:d], g[d:] - d
    return (bool((pi < d).all() and (sigma >= 0).all())
            and signed_pair(h, pi, sigma))


def _iota(h, g) -> bool:
    d = h.shape[0]
    pi, sigma = g[::d] // d, g[:d] % d
    product = (pi[:, None] * d + sigma[None, :]).reshape(-1)
    return (np.array_equal(g, product) and len(set(pi.tolist())) == d
            and len(set(sigma.tolist())) == d and signed_pair(h, pi, sigma))


def check_weak_hadamard(payload: dict, h: np.ndarray, order: int) -> list[str]:
    """An `aut hadamard --strength weak` payload."""
    d = h.shape[0]
    grp = payload.get("group", {})
    probs = []
    if payload.get("order") != str(order) or grp.get("order") != str(order):
        probs.append(f"order {payload.get('order')} != {order}")
    gens = _perms(grp.get("generators", []), 2 * d)
    if grp.get("degree") != 2 * d or gens is None:
        return probs + ["generators are not permutations of rows + columns"]
    if not all(_weak_rows_cols(h, g) for g in gens):
        probs.append("a generator breaks H[pi i, sigma j] = eps_i eps'_j H[i, j]")
    if grp.get("orbit_sizes") != sorted(len(o) for o in orbits(gens, 2 * d)):
        probs.append("orbit sizes disagree with the generators")
    return probs


def _line_shifts(p: int):
    return (0, 2) if p == 3 else (0,)


def check_line_group(payload: dict, h: np.ndarray, ring: str, expect: dict) -> list[str]:
    """An `aut sic --strength weak` payload and its coset witnesses."""
    d, p = h.shape[0], ring_char(ring)
    n = d * d
    grp = payload.get("group", {})
    probs = []
    if grp.get("order") != str(expect["order"]):
        probs.append(f"order {grp.get('order')} != {expect['order']}")
    gens = _perms(grp.get("generators", []), n)
    if grp.get("degree") != n or gens is None:
        return probs + ["generators are not permutations of [d] x [d]"]
    if grp.get("orbit_sizes") != expect["orbit_sizes"]:
        probs.append(f"orbit sizes {grp.get('orbit_sizes')} != {expect['orbit_sizes']}")
    if grp.get("orbit_sizes") != sorted(len(o) for o in orbits(gens, n)):
        probs.append("orbit sizes disagree with the generators")
    t = phase_table(h, p)
    if not all(phase_relation(t, g, _line_shifts(p), (1, -1)) for g in gens):
        probs.append("a generator breaks the phase relation")
    for label, w in payload.get("cosets", {}).items():
        if w is None:
            continue
        eps, gamma = label.split(",")
        ws = _perms([w], n)
        if ws is None or not phase_relation(t, ws[0], (0 if eps == "1" else 2,),
                                            (1 if gamma == "id" else -1,)):
            probs.append(f"coset witness {label} breaks the phase relation")
    return probs


def check_sandwich(payload: dict, h: np.ndarray, ring: str, expect: dict) -> list[str]:
    """A `sandwich` payload: orders, indices, orbits and every generator."""
    d, p = h.shape[0], ring_char(ring)
    n = d * d
    groups = payload.get("groups", {})
    probs = []
    if payload.get("dimension") != d or payload.get("ring") != ring:
        probs.append("header")
    orders = {k: int(groups.get(k, {}).get("order", 0)) for k in expect["orders"]}
    if orders != expect["orders"]:
        probs.append(f"orders {orders}")
    names = list(expect["orders"])
    ratios = [orders[b] // max(orders[a], 1) for a, b in zip(names, names[1:])]
    if payload.get("indices") != expect["indices"] or ratios != expect["indices"]:
        probs.append(f"indices {payload.get('indices')}")
    if payload.get("totally_asymmetric") is not (orders["weak_sic"] == 1):
        probs.append("totally_asymmetric flag")
    t = phase_table(h, p)
    ht = tilde(h)
    tests = {
        "iota_weak_H": lambda g: _iota(h, g),
        "strong_sic": lambda g: phase_relation(t, g, _line_shifts(p), (1,)),
        "weak_sic": lambda g: phase_relation(t, g, _line_shifts(p), (1, -1)),
        "strong_tilde": lambda g: signed_strong(ht, g),
    }
    for name, test in tests.items():
        gens = _perms(groups.get(name, {}).get("generators", []), n)
        if gens is None:
            probs.append(f"{name}: generators are not permutations")
            continue
        if not all(test(g) for g in gens):
            probs.append(f"{name}: a generator fails its identity")
        if groups.get(name, {}).get("orbits") != orbits(gens, n):
            probs.append(f"{name}: orbits disagree with the generators")
    return probs
