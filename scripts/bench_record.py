#!/usr/bin/env python3
"""Record a benchmark trajectory file (BENCH_<pr>.json) from two checkouts.

    scripts/bench_record.py --pr N --parent DIR --change DIR \\
        [--parent-target DIR] [--change-target DIR] [--pairs 10] \\
        [--seed 7] [--seconds 10] [--workloads W ...] \\
        [--extra-seed 8 --extra-workloads W ...] [--change-commit TEXT] \\
        [--claim WORKLOAD/METRIC ...] [--moves WORKLOAD/METRIC ...] \\
        [--what TEXT] [--out FILE]

For every workload `BENCHMARK.json` declares, runs `--pairs` alternating
parent/change pairs of the `BENCHMARK.json` command (`--trace 0`; the side
that goes first alternates from pair to pair), each side from the root of
its own checkout, then one `--trace 1` run per side for the per-layer
ledger. Writes, per side and workload, the result line of the run whose
`verdict_s` is closest to the side's median, the median and quartiles of
every end-to-end metric, and the ledger line; per workload and metric, how
many pairs each side won. `--extra-seed` repeats the pairs (no ledger) on
`--extra-workloads` with a seed not used while writing the change.
`--claim W/M` records that the change claims a gain on workload W's
end-to-end metric M; `scripts/bench_compare.py` then judges it.
`--moves W/M` records that the change moves workload W's exact count M (a
per-layer metric of unit `count`); `scripts/bench_compare.py` fails on any
count that differs between the two ledgers and is not recorded so.

Both checkouts should be built beforehand (the command is `cargo run`, so
an unbuilt one is built inside the first timed run's process, not inside
its timings). `--parent-target` / `--change-target` set CARGO_TARGET_DIR
for that side. `scripts/bench_compare.py` reads the file this writes.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, checkout, target, workload, seed, seconds, trace):
    """One benchmark run; its result is the last stdout line, a JSON object."""
    env = dict(os.environ)
    if target:
        env["CARGO_TARGET_DIR"] = target
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} (in {checkout}) exited {proc.returncode}")
    return json.loads(lines[-1])


def commit_of(checkout):
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip()

    head = git("rev-parse", "HEAD") or "?"
    return f"working tree on top of {head}" if git("status", "--porcelain") else head


def summarise(runs, metrics):
    out = {}
    for m in metrics:
        values = [r["metrics"][m]["value"] for r in runs]
        # One run has no spread; `quantiles` wants two points.
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[m] = {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}
    out["failed"] = sum(r["failed"] for r in runs)
    out["correct"] = all(r["correct"] for r in runs)
    return out


def closest_to_median(runs, metric="verdict_s"):
    median = statistics.median(r["metrics"][metric]["value"] for r in runs)
    return min(runs, key=lambda r: abs(r["metrics"][metric]["value"] - median))


def pairs_won(parent_runs, change_runs, bench_metrics):
    """Per metric: pairs in which each side read strictly better."""
    out = {}
    for m in bench_metrics:
        name, lower = m["name"], m["better"] == "lower"
        won = {"parent": 0, "change": 0, "ties": 0}
        for p, c in zip(parent_runs, change_runs):
            pv, cv = p["metrics"][name]["value"], c["metrics"][name]["value"]
            if pv == cv:
                won["ties"] += 1
            else:
                won["change" if (cv < pv) == lower else "parent"] += 1
        out[name] = won
    return out


def measure_pairs(command, sides, workload, seed, seconds, pairs):
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout, target = sides[side]
            runs[side].append(run_once(command, checkout, target, workload, seed, seconds, 0))
        p, c = (runs[s][-1]["metrics"]["verdict_s"]["value"] for s in ("parent", "change"))
        print(f"  {workload} seed {seed} pair {pair + 1}/{pairs}: verdict_s {p:.6g} -> {c:.6g}", flush=True)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--parent-target", help="CARGO_TARGET_DIR for the parent side")
    ap.add_argument("--change-target", help="CARGO_TARGET_DIR for the change side")
    ap.add_argument("--benchmark", help="BENCHMARK.json (default: the change checkout's)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--extra-seed", type=int, help="a seed not used while writing the change")
    ap.add_argument("--extra-workloads", nargs="+", default=[], help="workloads to repeat under --extra-seed")
    ap.add_argument("--change-commit", help="what to record as the change's commit (default: asked of git)")
    ap.add_argument("--claim", action="append", default=[], metavar="W/M", help="a claimed gain: workload/metric")
    ap.add_argument("--moves", action="append", default=[], metavar="W/M", help="a count the change moves: workload/metric")
    ap.add_argument("--what", default="", help="free text recorded in the file (session notes)")
    ap.add_argument("--out", help="default: BENCH_<pr>.json in the change checkout")
    args = ap.parse_args()

    with open(args.benchmark or os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    claims = []
    for claim in args.claim:
        workload, _, metric = claim.partition("/")
        if workload not in workloads or metric not in metrics:
            sys.exit(f"error: --claim {claim}: not a measured workload/end-to-end metric")
        claims.append({"workload": workload, "metric": metric})
    counts = [m["name"] for m in bench.get("per_layer", []) if m.get("unit") == "count"]
    moves = []
    for move in args.moves:
        workload, _, metric = move.partition("/")
        if workload not in workloads or metric not in counts:
            sys.exit(f"error: --moves {move}: not a measured workload/count metric")
        moves.append({"workload": workload, "metric": metric})
    sides = {
        "parent": (os.path.abspath(args.parent), args.parent_target),
        "change": (os.path.abspath(args.change), args.change_target),
    }

    doc = {
        "pr": args.pr,
        "what": (
            "Per side and workload: one `run --trace 0` result line (the run whose verdict_s is closest to the "
            "median of the pairs), the median and quartiles of each end-to-end metric over the alternating "
            "parent/change pairs, and one `run --trace 1` ledger line; `pairs_won` counts, per metric, the pairs "
            "each side read strictly better. Written by scripts/bench_record.py. " + args.what
        ).strip(),
        "command": " ".join(command) + f" --workload W --seed {args.seed} --seconds {seconds} --trace 0|1",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "cores": os.cpu_count(),
        "sides": {s: {"commit": commit_of(sides[s][0]), "end_to_end": {}, "summary": {}, "ledger": {}} for s in sides},
        "pairs_won": {},
    }
    if claims:
        doc["claims"] = claims
    if moves:
        doc["moves"] = moves
    if args.change_commit:
        doc["sides"]["change"]["commit"] = args.change_commit
    for workload in workloads:
        runs = measure_pairs(command, sides, workload, args.seed, seconds, args.pairs)
        for side, (checkout, target) in sides.items():
            out = doc["sides"][side]
            out["end_to_end"][workload] = closest_to_median(runs[side])
            out["summary"][workload] = summarise(runs[side], metrics)
            out["ledger"][workload] = run_once(command, checkout, target, workload, args.seed, seconds, 1)
        doc["pairs_won"][workload] = pairs_won(runs["parent"], runs["change"], bench["end_to_end"])
    if args.extra_seed is not None and args.extra_workloads:
        extra = {"seed": args.extra_seed, "summary": {"parent": {}, "change": {}}, "pairs_won": {}}
        for workload in args.extra_workloads:
            runs = measure_pairs(command, sides, workload, args.extra_seed, seconds, args.pairs)
            for side in sides:
                extra["summary"][side][workload] = summarise(runs[side], metrics)
            extra["pairs_won"][workload] = pairs_won(runs["parent"], runs["change"], bench["end_to_end"])
        doc["extra_seed"] = extra

    path = args.out or os.path.join(args.change, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
