#!/usr/bin/env python3
"""Compare two committed benchmark trajectory files (BENCH_<pr>.json).

    scripts/bench_compare.py PREV.json THIS.json [--benchmark BENCHMARK.json]

Two tables, one row per workload x end-to-end metric, medians of the ten
alternating pairs each file records, and a third of exact counts:

* drift   PREV's `change` side against THIS's `parent` side. They are the
          same commit measured in two sessions, so the ratio is how much
          the machine moved between the files. Reported, never judged.
* change  THIS's `parent` side against its `change` side, judged with the
          bounds `BENCHMARK.json` declares: a metric is a regression when
          the change's median is worse than the parent's by more than its
          bound, a workload when its change side is incorrect or fails
          more operations than its parent side.
* counts  THIS's `parent` ledger against its `change` ledger, every
          per-layer metric whose `BENCHMARK.json` unit is `count`. An exact
          count that differs moved pruning, solving or sharding, not just
          speed: it fails unless THIS records it as a move
          (`bench_record.py --moves W/M`).

When THIS records `claims` (`bench_record.py --claim W/M`), each is
judged by the rule of choosing-metrics section 8: the change wins at least
nine tenths of the pairs (ties count for neither side), and its median is
better than the parent's by more than the parent's interquartile range.
A claim on a workload the extra seed repeated is judged there too.

Exit status: 0 when no row of the second table regresses, every count that
differs is a recorded move and every claim holds, 1 otherwise, 2 on
unusable input. A file comparison: nothing is built or run.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)


def summary(doc, side, path):
    try:
        return doc["sides"][side]["summary"]
    except (KeyError, TypeError):
        print(f"error: {path}: no sides.{side}.summary", file=sys.stderr)
        sys.exit(2)


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (negative = improved)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def table(title, metrics, base, new, judge):
    """Print one table; return the regressions found (only when judging)."""
    print(title)
    print(f"  {'workload':<14} {'metric':<18} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6}")
    regressions = []
    for workload in base:
        if workload not in new:
            print(f"  {workload:<14} missing from the newer side")
            continue
        for m in metrics:
            name = m["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if b is None or n is None:
                continue
            worse = worse_by(b["median"], n["median"], m["better"])
            mark = ""
            if judge and worse > m["bound"]:
                mark = "  REGRESSION"
                regressions.append(f"{workload} {name}: worse by {worse:+.1%} (bound {m['bound']:.0%})")
            print(
                f"  {workload:<14} {name:<18} {b['median']:>12.6g} {n['median']:>12.6g}"
                f" {worse:>+9.1%} {m['bound']:>6.0%}{mark}"
            )
        if judge:
            b, n = base[workload], new[workload]
            if not n.get("correct", True) or n.get("failed", 0) > b.get("failed", 0):
                regressions.append(
                    f"{workload}: correct={n.get('correct')} failed {b.get('failed', 0)} -> {n.get('failed', 0)}"
                )
    print()
    return regressions


def count_moves(doc, bench, path):
    """Print the counts table of `doc`; return the differences it does not record as moves."""
    names = [m["name"] for m in bench.get("per_layer", []) if m.get("unit") == "count"]
    recorded = {(m["workload"], m["metric"]) for m in doc.get("moves", [])}
    ledgers = {}
    for side in ("parent", "change"):
        try:
            ledgers[side] = doc["sides"][side]["ledger"]
        except (KeyError, TypeError):
            print(f"error: {path}: no sides.{side}.ledger", file=sys.stderr)
            sys.exit(2)
    print(f"counts: {path} parent ledger -> change ledger (rows where either side is nonzero)")
    print(f"  {'workload':<14} {'metric':<28} {'parent':>12} {'change':>12}")
    unrecorded, equal = [], 0
    for workload, parent in ledgers["parent"].items():
        change = ledgers["change"].get(workload, {}).get("metrics", {})
        for name in names:
            p, c = parent["metrics"].get(name), change.get(name)
            if p is None or c is None:
                continue
            p, c = p["value"], c["value"]
            mark = ""
            if p == c:
                equal += 1
            elif (workload, name) in recorded:
                mark = "  moved (recorded)"
            else:
                mark = "  MOVED"
                unrecorded.append(f"{workload} {name}: {p} -> {c}, not recorded as a move")
            if p or c:
                print(f"  {workload:<14} {name:<28} {p:>12} {c:>12}{mark}")
    print(f"  {equal} counts equal\n")
    return unrecorded


def judge_claim(claim, summaries, pairs_won, pairs, better):
    """One claim against one set of pairs; returns the failure, if any."""
    w, m = claim["workload"], claim["metric"]
    try:
        p, c = summaries["parent"][w][m], summaries["change"][w][m]
        won = pairs_won[w][m]["change"]
    except KeyError:
        return f"{w} {m}: not measured"
    gain = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    print(
        f"  {w:<14} {m:<18} {p['median']:>12.6g} {c['median']:>12.6g}"
        f"  won {won}/{pairs}  gain {gain:.6g} vs parent IQR {iqr:.6g}"
    )
    if won * 10 < 9 * pairs:
        return f"{w} {m}: the change won {won} of {pairs} pairs (needs 9/10)"
    if gain <= iqr:
        return f"{w} {m}: median gain {gain:.6g} is not above the parent's IQR {iqr:.6g}"
    return None


def judge_claims(doc, metrics):
    """Print and judge every claim `doc` records; returns the failures."""
    better = {m["name"]: m["better"] for m in metrics}
    failures = []
    for claim in doc.get("claims", []):
        if claim["metric"] not in better:
            failures.append(f"{claim['workload']} {claim['metric']}: no such end-to-end metric")
            continue
        runs = [(f"seed {doc.get('seed')}", {s: doc["sides"][s]["summary"] for s in doc["sides"]}, doc["pairs_won"])]
        extra = doc.get("extra_seed")
        if extra and claim["workload"] in extra["pairs_won"]:
            runs.append((f"seed {extra['seed']}", extra["summary"], extra["pairs_won"]))
        for label, summaries, won in runs:
            print(f"claim ({label}):")
            failure = judge_claim(claim, summaries, won, doc["pairs"], better[claim["metric"]])
            if failure:
                failures.append(f"{failure} ({label})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("prev", help="the previous PR's BENCH_<pr>.json")
    ap.add_argument("this", help="this PR's BENCH_<pr>.json")
    ap.add_argument("--benchmark", default="BENCHMARK.json", help="where the bounds are declared")
    args = ap.parse_args()

    prev, this, bench = load(args.prev), load(args.this), load(args.benchmark)
    metrics = bench.get("end_to_end")
    if not metrics:
        print(f"error: {args.benchmark}: no end_to_end metrics", file=sys.stderr)
        sys.exit(2)

    def commit(doc, side):
        return doc["sides"][side].get("commit", "?")

    table(
        f"drift: {args.prev} change ({commit(prev, 'change')})\n"
        f"    -> {args.this} parent ({commit(this, 'parent')}) -- same code, two sessions; not judged",
        metrics,
        summary(prev, "change", args.prev),
        summary(this, "parent", args.this),
        judge=False,
    )
    regressions = table(
        f"change: {args.this} parent -> change ({commit(this, 'change')})",
        metrics,
        summary(this, "parent", args.this),
        summary(this, "change", args.this),
        judge=True,
    )
    failures = count_moves(this, bench, args.this) + judge_claims(this, metrics)
    if regressions:
        print("regressions beyond the declared bounds:")
        for r in regressions:
            print(f"  {r}")
    if failures:
        print("counts moved or claims not met:")
        for f in failures:
            print(f"  {f}")
    if regressions or failures:
        sys.exit(1)
    print("no metric is worse than its bound" + (", every claim holds" if this.get("claims") else ""))


if __name__ == "__main__":
    main()
