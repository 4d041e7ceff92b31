"""The measured process: imports eqlines from the checkout's ``src``,
writes the workload's inputs, then runs whole rounds of CLI commands
through ``eqlines.cli.main`` within ``--seconds`` and reports their wall
times.

Prints ``READY <monotonic time>`` once eqlines is imported and the inputs
exist, and at the end one JSON line with the rounds.  With --setup-only it
stops after READY; run.py uses such runs to sample set-up time.  With
--trace 1 it runs untraced rounds for half the time, then as many rounds
again with the tracer installed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, render

ROOT = Path(__file__).resolve().parent.parent


def setup(args):
    """Import eqlines from this checkout and make the workload's inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eqlines
    from eqlines import cli, hadamard

    if src not in Path(eqlines.__file__).resolve().parents:
        sys.exit(f"eqlines was imported from {eqlines.__file__}, not from {src}")
    wl = WORKLOADS[args.workload](args.seed)
    inputs = Path(args.workdir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, fname in wl.had_files.items():
        (inputs / fname).write_text(render(wl.matrices[name]))
    for name in wl.matrices:  # every input parses before the first round
        hadamard.from_recipe(wl.recipe(name, inputs))
    return cli, wl, inputs


def run_command(cli, argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall time and captured stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, time.perf_counter() - t0, out.getvalue()


def run_round(cli, wl, inputs: Path, rdir: Path) -> dict:
    rdir.mkdir(parents=True, exist_ok=True)
    cmds = []
    t0 = time.perf_counter()
    for c in wl.commands:
        out = rdir / f"{c.name}.json"
        argv = [*c.argv, "--had", wl.recipe(c.matrix, inputs), "--json", "--out", str(out)]
        rc, dt, stdout = run_command(cli, argv)
        cmds.append({"name": c.name, "phase": c.phase, "rc": rc, "s": dt,
                     "stdout": stdout if rc else ""})
    return {"dir": str(rdir), "wall_s": time.perf_counter() - t0, "commands": cmds}


def run_rounds(cli, wl, inputs, workdir: Path, seconds: float) -> list[dict]:
    """As many whole rounds as fit in ``seconds``, at least one: a round
    starts only if one more round as long as the last still ends in time."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 + rounds[-1]["wall_s"] <= seconds:
        rounds.append(run_round(cli, wl, inputs, workdir / f"r{len(rounds)}"))
    return rounds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli, wl, inputs = setup(args)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return
    workdir = Path(args.workdir)
    # warm-up: first calls into numpy and sympy paths, not timed
    run_command(cli, ["sandwich", "--had", "sylvester:1", "--ring", "gf:3",
                      "--json", "--out", str(workdir / "warmup.json")])

    result: dict = {}
    if not args.trace:
        result["rounds"] = run_rounds(cli, wl, inputs, workdir, args.seconds)
    else:
        from layers import Tracer, median_metrics

        plain = run_rounds(cli, wl, inputs, workdir, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = []
        for k in range(len(plain), 2 * len(plain)):
            tracer.round = k
            traced.append(run_round(cli, wl, inputs, workdir / f"r{k}"))
        per_layer = median_metrics([tracer.round_metrics(k)
                                    for k in range(len(plain), 2 * len(plain))])
        per_layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                         - statistics.median(r["wall_s"] for r in plain))
        (workdir / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "missing_targets": sorted(tracer.missing),
            "per_layer": per_layer,
            "self_s": tracer.self_times(),
            "spans": tracer.spans,
        }))
        result.update(rounds=plain, traced_rounds=traced, per_layer=per_layer,
                      missing=sorted(tracer.missing))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
