#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files the harness writes (by default
.bench_build/results/<workload>-seed<n>-trace<t>.json; copy the directory
away between the two sets).  For every end-to-end metric x workload the
script compares the medians of the untraced runs and prints one verdict:

  better      the new median is better by more than the base set's own
              spread (distance between its quartiles, as a share of its
              median), and the new run beats the base run of the same
              seed for at least nine tenths of the seeds in both sets
  worse       the new median is worse than the base median by more than
              the metric's bound
  within      neither
  unresolved  the run-to-run spread of either set exceeds the bound, so
              "no worse" cannot be told apart from noise, unless every new
              run beats every base run (then: better)

A workload is "invalid", and gets no verdicts, when a new run is not
correct (a check failed, or the harness self-test let a corruption
through) or when the new set fails a larger share of its attempted
operations than the base set: a speed-up does not count if more
operations fail.

Per-layer metrics of the traced runs are listed side by side, without a
verdict.  Exits 1 if any workload is invalid or any verdict is "worse",
2 on unusable input.
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): [result file dict, ...]}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                doc = json.load(f)
            prov = doc["provenance"]
            key = (prov["workload"], int(prov["trace"]))
            res = doc["result"]
            if not all(k in res for k in ("correct", "attempted", "failed")):
                raise KeyError("result")
        except (OSError, ValueError, KeyError, TypeError):
            print(f"skipping {path}: not a harness result file",
                  file=sys.stderr)
            continue
        runs.setdefault(key, []).append(doc)
    return runs


def failed_share(docs):
    attempted = sum(d["result"]["attempted"] for d in docs)
    failed = sum(d["result"]["failed"] for d in docs)
    return failed / attempted if attempted else 1.0


def invalid_reasons(base_docs, new_docs):
    reasons = []
    wrong = [d["provenance"]["seed"] for d in new_docs
             if not d["result"]["correct"] or not d.get("self_test_ok")]
    if wrong:
        reasons.append(f"new runs not correct (seeds {wrong})")
    b, n = failed_share(base_docs), failed_share(new_docs)
    if n > b:
        reasons.append(f"failed share rose from {b:.4%} to {n:.4%}")
    return reasons


def values(docs, metric):
    return [d["result"]["metrics"][metric]["value"] for d in docs
            if metric in d["result"]["metrics"]]


def spread(vals):
    """Quartile distance as a share of the median (0 with < 2 values)."""
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(med)


def pair_wins(b_docs, n_docs, metric, better):
    """Share of the seeds in both sets where the new run beats the base
    run of the same seed (ties count for neither side)."""
    def by_seed(docs):
        return {d["provenance"]["seed"]: d["result"]["metrics"][metric]["value"]
                for d in docs if metric in d["result"]["metrics"]}
    b, n = by_seed(b_docs), by_seed(n_docs)
    seeds = sorted(set(b) & set(n))
    if not seeds:
        return 0.0
    wins = sum((n[s] < b[s]) if better == "lower" else (n[s] > b[s])
               for s in seeds)
    return wins / len(seeds)


def verdict(base, new, better, bound, wins):
    b_med, n_med = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n_med - b_med) / abs(b_med)
    beats_all = (max(new) < min(base)) if better == "lower" else \
        (min(new) > max(base))
    if max(spread(base), spread(new)) > bound:
        return ("better" if beats_all else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread(base) and wins >= 0.9:
        return "better", worse_by
    return "within", worse_by


def provenance_notes(base_docs, new_docs):
    notes = []
    for field in ("build_type", "cxx_flags", "compiler", "nproc",
                  "seconds"):
        b = {str(d["provenance"].get(field)) for d in base_docs}
        n = {str(d["provenance"].get(field)) for d in new_docs}
        if b != n:
            notes.append(f"{field} differs: {sorted(b)} vs {sorted(n)}")
    return notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read {args.benchmark}: {e}", file=sys.stderr)
        return 2
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("no result files in one of the directories", file=sys.stderr)
        return 2

    any_bad = False
    for wl in [w["name"] for w in bench["workloads"]]:
        b_docs, n_docs = base.get((wl, 0), []), new.get((wl, 0), [])
        if not b_docs or not n_docs:
            print(f"{wl}: no untraced runs in both sets")
            continue
        print(f"{wl}: {len(b_docs)} base runs, {len(n_docs)} new runs")
        for note in provenance_notes(b_docs, n_docs):
            print(f"  note: {note}")
        print(f"  failed share {failed_share(b_docs):.4%} -> "
              f"{failed_share(n_docs):.4%}")
        reasons = invalid_reasons(b_docs, n_docs)
        if reasons:
            any_bad = True
            print(f"  invalid: {'; '.join(reasons)}")
            continue
        for m in bench["end_to_end"]:
            b, n = values(b_docs, m["name"]), values(n_docs, m["name"])
            if not b or not n:
                continue
            wins = pair_wins(b_docs, n_docs, m["name"], m["better"])
            v, worse_by = verdict(b, n, m["better"], m["bound"], wins)
            any_bad = any_bad or v == "worse"
            print(f"  {m['name']:14s} {statistics.median(b):12.5g} -> "
                  f"{statistics.median(n):12.5g} {m['unit']:8s} "
                  f"{-worse_by:+8.2%} better  wins {wins:4.0%}  spread "
                  f"{spread(b):.1%}/{spread(n):.1%}  bound "
                  f"{m['bound']:.0%}  {v}")
        b_tr, n_tr = base.get((wl, 1), []), new.get((wl, 1), [])
        if b_tr and n_tr:
            print("  per-layer (traced runs, medians):")
            for m in bench["per_layer"]:
                b, n = values(b_tr, m["name"]), values(n_tr, m["name"])
                if b and n:
                    print(f"    {m['name']:32s} {statistics.median(b):12.5g}"
                          f" -> {statistics.median(n):12.5g} {m['unit']}")
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
