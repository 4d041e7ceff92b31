"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 search budget exhausted.  All output is deterministic for a fixed
command line; JSON is emitted with sorted keys.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (
    AnalysisError,
    EquivalenceWitness,
    hadamard_aut,
    sandwich_report,
    sic_aut_parts,
    tilde_strong_aut,
    weak_equiv_to_strong_sic_witness,
)
from .autgraph import BudgetExceeded
from .exactalg import Components, Ring, RingError, RingSpec
from .hadamard import (
    HadamardError,
    check_modular_hadamard,
    from_recipe,
    render_sign_matrix,
)
from .permgroup import PermGroup
from .sic import (
    SicError,
    SicSystem,
    applicable_primes,
    construct_sic,
    scan_dimensions,
    verify_sic,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class VerificationFailure(Exception):
    """Carries a payload describing what failed; maps to exit code 1."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


def _json_text(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) for a non-empty dict,
    in which a Components value stands for the nested list [[[re, im], ...],
    ...] of its rows' (re, im) pairs."""
    items = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, Components):
            text = _components_text(value)
        else:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _components_text(c: Components) -> str:
    """The (re, im) pairs of c's rows as json.dumps(..., indent=2) writes
    them one level into a dict, filled into one %d template (json would
    walk them one by one, 93,312 of them at d = 36).  The components are
    integers, as construct_sic makes them."""
    rows, cols = c.re.shape
    pair = "      [\n        %d,\n        %d\n      ]"
    row = "    [\n" + ",\n".join([pair] * cols) + "\n    ]"
    template = "[\n" + ",\n".join([row] * rows) + "\n  ]"
    return template % tuple(np.stack([c.re, c.im], -1).ravel().tolist())


def _emit(args, payload: dict, plain: str | None = None):
    if getattr(args, "json", False) or plain is None:
        text = _json_text(payload)
    else:
        text = plain
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ring(args) -> Ring:
    return Ring(RingSpec.parse(args.ring))


def _verdict_payload(verdict) -> dict:
    return {"passed": verdict.passed, "a": verdict.a_int, "b": verdict.b_int,
            "c": verdict.c_int, "failed_axiom": verdict.failed_axiom}


def _verified_sic(m, args) -> SicSystem:
    """The line system of ``m``, verified before any search runs on it."""
    s = construct_sic(m, _ring(args))
    verdict = verify_sic(s)
    if not verdict.passed:
        raise VerificationFailure("constructed system fails verification",
                                  {**_verdict_payload(verdict), "witness": verdict.witness})
    return s


def _group_payload(g: PermGroup) -> dict:
    return {
        "order": str(g.order()),
        "degree": g.n,
        "generators": [gen.as_list() for gen in g.generators],
        "orbit_sizes": g.orbit_sizes(),
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_hadamard_gen(args) -> int:
    m = from_recipe(args.recipe, cap=args.cap)
    text = render_sign_matrix(m)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_hadamard_check(args) -> int:
    m = from_recipe(args.recipe, cap=args.cap)
    cert = check_modular_hadamard(m, args.mod)
    payload = {
        "order": m.d,
        "modulus": cert.modulus,
        "valid": cert.valid,
        "failure_witness": list(cert.failure_witness) if cert.failure_witness else None,
    }
    if not cert.valid:
        raise VerificationFailure("matrix is not Hadamard for this modulus", payload)
    _emit(args, payload, f"order {m.d}: Hadamard mod {cert.modulus or 'integers'}")
    return EXIT_OK


def _cmd_sic_build(args) -> int:
    m = from_recipe(args.had, cap=args.cap)
    s = construct_sic(m, _ring(args))
    verdict = verify_sic(s)
    # s.to_json_dict(), with the vectors left as components for _emit
    payload = {"d": s.d, "ring": str(s.ring.spec), "source": render_sign_matrix(m),
               "vectors": s.vectors, "verdict": _verdict_payload(verdict)}
    if not verdict.passed:
        raise VerificationFailure("constructed system fails verification", payload)
    _emit(args, payload)
    return EXIT_OK


def _cmd_sic_verify(args) -> int:
    with open(args.path) as fh:
        s = SicSystem.from_json_dict(json.load(fh))
    verdict = verify_sic(s)
    payload = {**_verdict_payload(verdict), "witness": verdict.witness}
    if not verdict.passed:
        raise VerificationFailure("system fails verification", payload)
    _emit(args, payload, f"pass: ({verdict.a_int},{verdict.b_int},{verdict.c_int})")
    return EXIT_OK


def _cmd_sic_primes(args) -> int:
    primes, every = applicable_primes(args.dim, bound=args.bound)
    # the key's name is kept for the --json bytes; it means every p = 3 (mod 4)
    payload = {"dimension": args.dim, "primes": primes, "all_odd_primes": every}
    plain = ("every prime p = 3 (mod 4)" if every else
             " ".join(str(p) for p in primes) or "(none)")
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_sic_scan(args) -> int:
    hits = scan_dimensions(args.prime, args.max, cap=args.cap)
    payload = {"prime": args.prime, "max": args.max,
               "dimensions": [{"d": d, "recipe": r} for d, r in hits]}
    plain = "\n".join(f"{d}\t{r}" for d, r in hits)
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_aut_hadamard(args) -> int:
    m = from_recipe(args.had, cap=args.cap)
    g = hadamard_aut(m, args.strength, budget=args.budget)
    order = g.order()
    payload = {"order": str(order), "strength": args.strength,
               "group": _group_payload(g)}
    _emit(args, payload, f"order {order}")
    return EXIT_OK


def _cmd_aut_sic(args) -> int:
    s = _verified_sic(from_recipe(args.had, cap=args.cap), args)
    parts = sic_aut_parts(s, budget=args.budget)
    g = parts.group(args.strength)
    payload = {
        "strength": args.strength,
        "group": _group_payload(g),
        "cosets": {f"{eps},{gamma}": (w.as_list() if w else None)
                   for (eps, gamma), w in parts.coset_witness.items()},
    }
    _emit(args, payload, f"order {g.order()}")
    return EXIT_OK


def _cmd_aut_tilde(args) -> int:
    m = from_recipe(args.had, cap=args.cap)
    g = tilde_strong_aut(m, budget=args.budget)
    _emit(args, {"group": _group_payload(g)}, f"order {g.order()}")
    return EXIT_OK


def _cmd_sandwich(args) -> int:
    rep = sandwich_report(_verified_sic(from_recipe(args.had, cap=args.cap), args),
                          args.budget)
    payload = rep.to_json_dict()
    plain = " <= ".join(str(rep.orders[k]) for k in
                        ("iota_weak_H", "strong_sic", "weak_sic", "strong_tilde"))
    plain += f"   indices {list(rep.indices)}"
    _emit(args, payload, plain)
    return EXIT_OK


def _cmd_witness_check(args) -> int:
    source = from_recipe(args.source, cap=args.cap)
    target = from_recipe(args.target, cap=args.cap)
    if source.d != target.d:
        raise AnalysisError(f"source order {source.d} and target order {target.d} differ")
    with open(args.witness) as fh:
        w = EquivalenceWitness.from_json_dict(json.load(fh), source.d)
    bad = w.check(source, target)
    if bad is not None:
        raise VerificationFailure("witness identity fails",
                                  {"violated_entry": list(bad)})
    payload = {"valid": True}
    if args.ring:
        induced = weak_equiv_to_strong_sic_witness(source, target, w,
                                                   RingSpec.parse(args.ring))
        payload["induced_index_map"] = induced.perm.as_list()
        payload["induced_col_scalars"] = [int(v) for v in induced.col_scalars]
    _emit(args, payload, "witness valid")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _add_common(p, ring=False, budget=False):
    p.add_argument("--cap", type=int, default=256,
                   help="largest matrix order to generate")
    p.add_argument("--json", action="store_true", help="force JSON output")
    p.add_argument("--out", help="write output to a file instead of stdout")
    if ring:
        p.add_argument("--ring", required=True,
                       help="coefficient ring: gf:p, gauss, or gaussq")
    if budget:
        p.add_argument("--budget", type=_positive_int,
                       default=os.environ.get("EQLINES_BUDGET", "10000000"),
                       help="search node budget (default: $EQLINES_BUDGET or 10000000)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eqlines",
        description="exact construction and symmetry analysis of "
                    "equiangular line systems from sign matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hadamard", help="sign matrix generation and checks")
    hsub = h.add_subparsers(dest="subcommand", required=True)
    g = hsub.add_parser("gen", help="print a matrix from a recipe")
    g.add_argument("recipe", help="sylvester:k, paley1:q, paley2:q, "
                                  "kron:<a>,<b>, or a .had file")
    _add_common(g)
    g.set_defaults(func=_cmd_hadamard_gen)
    c = hsub.add_parser("check", help="verify the Hadamard congruence")
    c.add_argument("recipe")
    c.add_argument("--mod", type=int, default=0,
                   help="odd prime modulus, or 0 for exact equality")
    _add_common(c)
    c.set_defaults(func=_cmd_hadamard_check)

    s = sub.add_parser("sic", help="line system construction and verification")
    ssub = s.add_subparsers(dest="subcommand", required=True)
    b = ssub.add_parser("build", help="construct and verify a line system")
    b.add_argument("--had", required=True)
    _add_common(b, ring=True)
    b.set_defaults(func=_cmd_sic_build)
    v = ssub.add_parser("verify", help="re-verify a saved system")
    v.add_argument("path")
    _add_common(v)
    v.set_defaults(func=_cmd_sic_verify)
    pr = ssub.add_parser("primes", help="finite characteristics usable for a dimension")
    pr.add_argument("--dim", type=int, required=True)
    pr.add_argument("--bound", type=int, default=1000)
    _add_common(pr)
    pr.set_defaults(func=_cmd_sic_primes)
    sc = ssub.add_parser("scan", help="constructible dimensions for a prime")
    sc.add_argument("--prime", type=int, required=True)
    sc.add_argument("--max", type=int, required=True)
    _add_common(sc)
    sc.set_defaults(func=_cmd_sic_scan)

    a = sub.add_parser("aut", help="automorphism groups")
    asub = a.add_subparsers(dest="subcommand", required=True)
    ah = asub.add_parser("hadamard")
    ah.add_argument("--had", required=True)
    ah.add_argument("--strength", choices=["weak", "strong"], default="weak")
    _add_common(ah, budget=True)
    ah.set_defaults(func=_cmd_aut_hadamard)
    asic = asub.add_parser("sic")
    asic.add_argument("--had", required=True)
    asic.add_argument("--strength", choices=["weak", "strong"], default="weak")
    _add_common(asic, ring=True, budget=True)
    asic.set_defaults(func=_cmd_aut_sic)
    at = asub.add_parser("tilde")
    at.add_argument("--had", required=True)
    _add_common(at, budget=True)
    at.set_defaults(func=_cmd_aut_tilde)

    sw = sub.add_parser("sandwich", help="full four-group chain report")
    sw.add_argument("--had", required=True)
    _add_common(sw, ring=True, budget=True)
    sw.set_defaults(func=_cmd_sandwich)

    wc = sub.add_parser("witness", help="equivalence witness utilities")
    wsub = wc.add_subparsers(dest="subcommand", required=True)
    w = wsub.add_parser("check")
    w.add_argument("--source", required=True)
    w.add_argument("--target", required=True)
    w.add_argument("--witness", required=True, help="JSON file with pi, sigma, "
                   "row_signs, col_signs")
    w.add_argument("--ring", help="also verify the induced line-system map")
    _add_common(w)
    w.set_defaults(func=_cmd_witness_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except VerificationFailure as e:
        if e.payload is not None:
            _emit(args, e.payload)
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (HadamardError, SicError, RingError, AnalysisError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
