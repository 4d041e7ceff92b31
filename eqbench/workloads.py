"""The benchmark's workloads: which eqlines CLI commands one round runs,
the inputs they read, and what the independent checks expect of each.

Matrices are made here, without eqlines, so that the checks compare the
program's outputs against the benchmark's own construction.  Only
``hoggar-chain`` draws on the seed: it writes seeded weak transforms of
the Sylvester matrix of order 8 as ``.had`` files.  The other workloads
use fixed matrices, because a relabelled input changes the search tree
and with it the run time, which would make their figures depend on the
seed rather than on the program.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import numpy as np

# Two fields where `sic build` of a valid system fails because
# verify_sic's finite-field products overflow int64 (for d = 8 the first
# failing prime = 3 (mod 4) is 506166779).
OVERFLOW_RINGS = ("gf:2147483647", "gf:2305843009213693951")

# Stated orders of the Hoggar chain (d = 8): iota(weak H) <= strong lines
# <= weak lines <= strong Ht, and the indices between them.
HOGGAR_ORDERS = {"iota_weak_H": 10752, "strong_sic": 387072,
                 "weak_sic": 774144, "strong_tilde": 92897280}
HOGGAR_INDICES = [36, 2, 120]

# The weak automorphism group of the line system of paley1:19 over GF(9).
PALEY19_LINE_ORDER = 6840
PALEY19_LINE_ORBITS = [20, 380]


@dataclass(frozen=True)
class Command:
    """One CLI invocation in a round.

    ``argv`` omits ``--json --out``; the worker adds them.  ``matrix``
    names the sign matrix in the workload's matrix table, ``phase`` is
    "build" or "groups" and decides which end-to-end metric its wall time
    counts towards, and ``expect`` holds what the checks compare with."""

    name: str
    phase: str
    argv: tuple[str, ...]
    matrix: str
    ring: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    matrices: dict[str, np.ndarray]   # matrix name -> sign matrix
    had_files: dict[str, str]         # matrix name -> file name under inputs/
    commands: list[Command]

    def recipe(self, matrix: str, inputs: Path) -> str:
        """The --had argument for a matrix: a recipe or a written file."""
        if matrix in self.had_files:
            return str(inputs / self.had_files[matrix])
        return matrix


# ---------------------------------------------------------------------------
# sign matrices, built without eqlines (conventions from the README)


def sylvester(k: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


def _jacobsthal(q: int) -> np.ndarray:
    squares = {(x * x) % q for x in range(1, q)}
    chi = np.array([0] + [1 if x in squares else -1 for x in range(1, q)])
    return chi[(np.arange(q)[None, :] - np.arange(q)[:, None]) % q]


def paley1(q: int) -> np.ndarray:
    h = np.empty((q + 1, q + 1), dtype=np.int64)
    h[0, :] = 1
    h[1:, 0] = -1
    h[1:, 1:] = _jacobsthal(q) + np.eye(q, dtype=np.int64)
    return h


def paley2(q: int) -> np.ndarray:
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = _jacobsthal(q)
    return (np.kron(c, [[1, 1], [1, -1]])
            + np.kron(np.eye(q + 1, dtype=np.int64), [[1, -1], [-1, -1]]))


def recipe_matrix(recipe: str) -> np.ndarray:
    kind, arg = recipe.split(":")
    return {"sylvester": sylvester, "paley1": paley1, "paley2": paley2}[kind](int(arg))


def weak_transform(h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """H'[pi i, sigma j] = r_i c_j H[i, j] for random pi, sigma, r, c."""
    d = h.shape[0]
    pi, sigma = rng.permutation(d), rng.permutation(d)
    r, c = rng.choice([-1, 1], size=d), rng.choice([-1, 1], size=d)
    out = np.empty_like(h)
    out[np.ix_(pi, sigma)] = r[:, None] * c[None, :] * h
    return out


def render(h: np.ndarray) -> str:
    return "\n".join("".join("+" if v > 0 else "-" for v in row) for row in h) + "\n"


# ---------------------------------------------------------------------------
# group orders in closed form


def gl2_order(m: int) -> int:
    return prod(2 ** m - 2 ** k for k in range(m))


def weak_hadamard_order(recipe: str) -> int:
    """Order of the weak automorphism group of H modulo signs (the Paley I
    form holds for q > 11; orders 8 and 12 have larger groups)."""
    kind, arg = recipe.split(":")
    q = int(arg)
    if kind == "sylvester":
        return 4 ** q * gl2_order(q)
    if kind == "paley1":
        return q * (q * q - 1) // 2
    return 2 * q * (q * q - 1)


# ---------------------------------------------------------------------------
# the workloads


def _build(matrix: str, ring: str, **expect) -> Command:
    name = "build_" + matrix.replace(":", "") + "_" + ring.replace(":", "")
    return Command(name, "build", ("sic", "build", "--ring", ring), matrix, ring, expect)


def _aut_hadamard(recipe: str) -> Command:
    return Command("hadamard_" + recipe.replace(":", ""), "groups",
                   ("aut", "hadamard", "--strength", "weak"), recipe,
                   expect={"order": weak_hadamard_order(recipe)})


def hoggar_chain(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    h8 = sylvester(3)
    matrices = {"sylvester:3": h8, "paley1:7": paley1(7),
                "weak1": weak_transform(h8, rng), "weak2": weak_transform(h8, rng)}
    chain = {"orders": HOGGAR_ORDERS, "indices": HOGGAR_INDICES}
    commands = [
        _build("sylvester:3", "gauss"),
        _build("sylvester:3", "gaussq"),
        _build("sylvester:3", "gf:3"),
        _build("paley1:7", "gf:7"),
        _build("weak1", "gf:11"),
        _build("weak2", "gauss"),
        *(_build("sylvester:3", ring, overflow=True) for ring in OVERFLOW_RINGS),
    ]
    for matrix, ring in (("sylvester:3", "gauss"), ("paley1:7", "gf:7"),
                         ("weak1", "gf:3"), ("weak2", "gf:11")):
        commands.append(Command(f"sandwich_{matrix.replace(':', '')}_{ring.replace(':', '')}",
                                "groups", ("sandwich", "--ring", ring), matrix, ring, chain))
    return Workload("hoggar-chain", matrices,
                    {"weak1": "weak1.had", "weak2": "weak2.had"}, commands)


def order20_lines(seed: int) -> Workload:
    recipe = "paley1:19"
    return Workload("order20-lines", {recipe: recipe_matrix(recipe)}, {}, [
        _build(recipe, "gf:3"),
        _aut_hadamard(recipe),
        Command("lines_paley119_gf3", "groups",
                ("aut", "sic", "--ring", "gf:3", "--strength", "weak"), recipe, "gf:3",
                {"order": PALEY19_LINE_ORDER, "orbit_sizes": PALEY19_LINE_ORBITS}),
    ])


def wide_hadamard(seed: int) -> Workload:
    pairs = (("sylvester:5", "gf:3"), ("paley1:31", "gf:3"), ("paley2:17", "gf:7"))
    commands = []
    for recipe, ring in pairs:
        commands += [_build(recipe, ring), _aut_hadamard(recipe)]
    return Workload("wide-hadamard", {r: recipe_matrix(r) for r, _ in pairs}, {}, commands)


WORKLOADS = {"hoggar-chain": hoggar_chain, "order20-lines": order20_lines,
             "wide-hadamard": wide_hadamard}
