"""End-to-end benchmark of the eqlines CLI.

    python3 eqbench/run.py --workload hoggar-chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Samples set-up time in fresh
interpreters, runs the workload's commands in one worker process
(worker.py, one thread), checks every output with checks.py, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer figures of a traced run (see layers.py), and spans go to
eqbench/out/<workload>/trace.json.  Exits non-zero, printing no result,
when the program cannot be imported or a run cannot finish.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from layers import METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5     # fresh interpreters per run, the worker included
RUN_LIMIT_S = 175     # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, workdir: Path, setup_only: bool, timeout: float):
    """Run worker.py; returns (set-up seconds, final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from e
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    setup_s = float(lines[0].split()[1]) - t0
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def check_command(wl, cmd, rec) -> list[str]:
    """Problems with the output of one command that exited 0."""
    h = wl.matrices[cmd.matrix]
    with open(Path(rec["dir"]) / f"{cmd.name}.json") as fh:
        payload = json.load(fh)
    if cmd.argv[0] == "sandwich":
        return checks.check_sandwich(payload, h, cmd.ring, cmd.expect)
    if cmd.argv[:2] == ("sic", "build"):
        return checks.check_line_system(payload, h, cmd.ring)
    if cmd.argv[:2] == ("aut", "hadamard"):
        return checks.check_weak_hadamard(payload, h, cmd.expect["order"])
    return checks.check_line_group(payload, h, cmd.ring, cmd.expect)


def explain_failure(wl, cmd, rec) -> str:
    """What the exact check says of a command the program failed."""
    if not cmd.expect.get("overflow"):
        return f"unexpected exit code {rec['rc']}"
    try:
        probs = checks.check_line_system(json.loads(rec["stdout"]),
                                         wl.matrices[cmd.matrix], cmd.ring, verdict=False)
    except (ValueError, TypeError) as e:
        return f"no readable payload on stdout: {e!r}"
    return (f"the exact check rejects it too: {probs}" if probs else
            "known fault: the exact check accepts the system verify_sic rejects")


def check_rounds(wl, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every round.
    Failed commands are counted and explained on stderr; the problems
    concern the outputs of the commands that succeeded."""
    by_name = {c.name: c for c in wl.commands}
    attempted = failed = 0
    problems = []
    notes: set[str] = set()
    for rnd in rounds:
        sandwich_orders = set()
        for rec in rnd["commands"]:
            rec["dir"] = rnd["dir"]
            cmd = by_name[rec["name"]]
            attempted += 1
            if rec["rc"] != 0:
                failed += 1
                notes.add(f"{cmd.name} failed: {explain_failure(wl, cmd, rec)}")
                continue
            try:
                probs = check_command(wl, cmd, rec)
                if cmd.argv[0] == "sandwich":
                    with open(Path(rnd["dir"]) / f"{cmd.name}.json") as fh:
                        groups = json.load(fh)["groups"]
                    sandwich_orders.add(tuple(g["order"] for g in groups.values()))
            except (OSError, ValueError, KeyError, TypeError) as e:
                probs = [f"unreadable output: {e!r}"]
            problems += [f"{rnd['dir']}/{cmd.name}: {p}" for p in probs]
        if len(sandwich_orders) > 1:
            problems.append(f"{rnd['dir']}: weak transforms give different orders "
                            f"{sorted(sandwich_orders)}")
    for note in sorted(notes):
        print(note, file=sys.stderr)
    return attempted, failed, problems


def phase_seconds(rounds: list[dict], phase: str) -> float:
    return statistics.median(sum(c["s"] for c in r["commands"] if c["phase"] == phase)
                             for r in rounds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    workdir = HERE / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = [spawn(args, workdir, True, 60)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = spawn(args, workdir, False,
                                RUN_LIMIT_S - (time.monotonic() - start))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    wl = WORKLOADS[args.workload](args.seed)
    rounds = result["rounds"] + result.get("traced_rounds", [])
    attempted, failed, problems = check_rounds(wl, rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in METRICS}
        for name in result["missing"]:
            print(f"missing trace target: {name}", file=sys.stderr)
    else:
        metrics = {
            "build_verify_s": {"value": phase_seconds(result["rounds"], "build"), "unit": "s"},
            "groups_s": {"value": phase_seconds(result["rounds"], "groups"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    result.update(setup_samples_s=setups, problems=problems)
    (workdir / "result.json").write_text(json.dumps(result))
    print(f"{args.workload}: {len(result['rounds'])} rounds, "
          f"{attempted} commands, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
