#!/usr/bin/env python3
"""Run-to-run steadiness of the consensus benchmark.

Two sub-commands, run from the root of a checkout:

  run      runs each workload --runs times, each with another seed
           (interleaving workloads so slow drift in the host spreads over
           all of them), saves every JSON result and prints, per metric,
           the median, the quartiles and the spread (quartile distance as
           a share of the median):

    python3 consbench/steadiness.py run --runs 10 --seconds 20 \\
        --first-seed 100 --out set-a.json

  compare  compares two saved sets metric by metric against the bounds in
           BENCHMARK.json: a metric fails when its spread in either set
           exceeds its bound (setup_s excepted), or when the second set's
           median is worse than the first's by more than the bound; the
           share of failed operations must be the same in both sets:

    python3 consbench/steadiness.py compare set-a.json set-b.json

The bounds in BENCHMARK.json were set from these figures (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                        proc.returncode))
    return json.loads(lines[-1])


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def summarize(results):
    """{workload: [result, ...]} -> {workload: {metric: (med, q1, q3, spread)}}"""
    out = {}
    for workload, runs in results.items():
        names = runs[0]["metrics"].keys()
        out[workload] = {
            n: stats([r["metrics"][n]["value"] for r in runs]) for n in names}
    return out


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def print_summary(results):
    for workload, metrics in summarize(results).items():
        runs = results[workload]
        print("%s  (%d runs, correct %d/%d, failed share %.6g)" % (
            workload, len(runs), sum(r["correct"] for r in runs), len(runs),
            failed_share(runs)))
        for name, (med, q1, q3, spread) in metrics.items():
            unit = runs[0]["metrics"][name]["unit"]
            print("  %-40s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.2f%%  %s"
                  % (name, med, q1, q3, 100 * spread, unit))


def cmd_run(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            r = one_run(w, seed, seconds, args.trace)
            results[w].append(r)
            print("# %s seed %d done" % (w, seed), file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace,
                       "results": results}, f, indent=1)
    print_summary(results)


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        a = json.load(f)["results"]
    with open(args.second) as f:
        b = json.load(f)["results"]
    ok = True
    for workload in a:
        if workload not in b:
            continue
        sa = summarize({workload: a[workload]})[workload]
        sb = summarize({workload: b[workload]})[workload]
        share_a, share_b = failed_share(a[workload]), failed_share(b[workload])
        same = share_a == share_b
        ok &= same
        print("%s  failed share %.6g vs %.6g %s" % (
            workload, share_a, share_b, "ok" if same else "DIFFERENT"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in sa or name not in sb:
                continue
            (ma, _, _, pa), (mb, _, _, pb) = sa[name], sb[name]
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            spread_ok = name == "setup_s" or (pa <= bound and pb <= bound)
            good = spread_ok and worse <= bound
            ok &= good
            print("  %-22s median %12.6g -> %12.6g (%+6.2f%%)  spread %5.2f%% / "
                  "%5.2f%%  bound %4.1f%%  %s" % (
                      name, ma, mb, 100 * change, 100 * pa, 100 * pb,
                      100 * bound, "ok" if good else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads n times and summarize")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all)")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0,
                     help="window length (default: run_seconds)")
    run.add_argument("--trace", type=int, default=0, choices=[0, 1])
    run.add_argument("--out", help="save the results as JSON")
    cmp_ = sub.add_parser("compare", help="compare two saved sets")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
