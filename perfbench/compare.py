#!/usr/bin/env python3
"""Compare benchmark runs recorded by run.py (.bench_build/perfbench/results/).

    compare.py steady RUNS.jsonl
        Runs of one code version over several seeds: every end-to-end
        metric's spread (IQR over median), setup_s's too, must stay within
        its bound. Prints each spread next to a third of its bound,
        the level a steady benchmark keeps to.

    compare.py regress PARENT.jsonl CHANGE.jsonl
        Runs of a parent and of a change: no metric's median may be worse
        than the parent's by more than its bound. A metric whose parent runs
        spread wider than the bound is reported unresolved.

Runs whose contexts differ (benchmath.COMPARABLE_KEYS; for `steady` also
the source digest) are refused, exit status 2. Exit status 1 means a check
failed.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spec_metrics(traced):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return bench["per_layer" if traced else "end_to_end"]


def refuse_mixed(records, same_code):
    first = records[0]["context"]
    for r in records[1:]:
        bad = benchmath.context_mismatch(first, r["context"], same_code)
        if bad:
            print(f"refusing to compare: contexts differ on {', '.join(bad)}")
            return True
    return False


def steady(records):
    if len(records) < 2:
        print("need at least two runs")
        return 2
    if refuse_mixed(records, same_code=True):
        return 2
    if records[0]["context"]["traced"]:
        print("per-layer runs have no bounds; nothing to check")
        return 0
    metrics = spec_metrics(False)
    runs = [r["metrics"] for r in records]
    ok = all(r["correct"] for r in records)
    print(f"{records[0]['context']['workload']}: {len(runs)} runs")
    for name, (s, bound, good) in benchmath.steadiness(runs, metrics).items():
        median = statistics.median(run[name] for run in runs)
        flag = "ok  " if good else "FAIL"
        print(f"  {flag} {name:<20} median {median:<14.6g} spread {s:.4f}  "
              f"bound {bound}  (steady below {bound / 3:.4f})")
        ok = ok and good
    return 0 if ok else 1


def regress(parent, change):
    if refuse_mixed(parent + change, same_code=False):
        return 2
    if refuse_mixed(parent, same_code=True) or refuse_mixed(change, True):
        return 2
    metrics = spec_metrics(parent[0]["context"]["traced"])
    ok = all(r["correct"] for r in change)
    print(f"{parent[0]['context']['workload']}: {len(parent)} parent runs, "
          f"{len(change)} change runs")
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name] for r in parent]
        new = [r["metrics"][name] for r in change]
        b, c = statistics.median(base), statistics.median(new)
        worse = benchmath.worse_by(b, c, m["better"])
        bound = m.get("bound")
        if bound is None:
            verdict = "info"
        elif len(base) >= 2 and benchmath.spread(base) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "WORSE"
            ok = False
        else:
            verdict = "ok"
        print(f"  {verdict:<10} {name:<32} parent {b:<12.6g} change "
              f"{c:<12.6g} worse by {worse:+.4f}")
    return 0 if ok else 1


def main(argv):
    if len(argv) == 3 and argv[1] == "steady":
        return steady(load(argv[2]))
    if len(argv) == 4 and argv[1] == "regress":
        return regress(load(argv[2]), load(argv[3]))
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
