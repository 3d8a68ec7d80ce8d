#!/usr/bin/env python3
"""Build hpsbench from this checkout and run it, or compare two sets of runs.

Run (from anywhere; paths are resolved against the checkout root):

    python3 hpsbench/run.py --workload a2a-sim --seed 1 --seconds 15 --trace 0
    python3 hpsbench/run.py                      # all four workloads, both passes

Every argument is passed to the hpsbench binary (see main.cpp). The build
lives in $CARGO_TARGET_DIR, else .bench_build, under the checkout root.

Compare two run sets written with --out (one JSON line per run):

    python3 hpsbench/run.py --compare base.jsonl change.jsonl

For every workload and metric it prints each set's median and quartiles and
the change's delta against the bound in BENCHMARK.json. A metric whose spread
(quartile distance over median) exceeds its bound is "unresolved". The exit
status is 1 on a resolved out-of-bound regression, a prediction digest that
differs for the same workload and seed, a higher failed share, or an
incorrect run.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hpsbench: no hpcsweep sources next to %s; run from a full checkout" % HERE)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hpsbench")
    steps = [["cmake", "--build", out, "-j", "4", "--target", "hpsbench"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("hpsbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "hpsbench")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    better = dict((m["name"], m["better"]) for m in spec["per_layer"])
    better.update((name, m["better"]) for name, m in gated.items())
    sets = [load_runs(path_a), load_runs(path_b)]
    bad = []

    for tag, runs in zip("AB", sets):
        for run in runs:
            if not run["correct"]:
                bad.append("%s: %s seed %s was incorrect: %s"
                           % (tag, run["workload"], run["seed"], "; ".join(run["problems"])))

    digests = {}
    for tag, runs in zip("AB", sets):
        for run in runs:
            key = (run["workload"], run["seed"])
            if digests.setdefault(key, run["digest"]) != run["digest"]:
                bad.append("%s: %s seed %s predicts differently (digest %s, expected %s)"
                           % (tag, key[0], key[1], run["digest"], digests[key]))

    workloads = sorted({run["workload"] for runs in sets for run in runs})
    row = "%-13s %-36s %28s %28s %9s %7s  %s"
    print(row % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                 "delta", "bound", "status"))
    for w in workloads:
        shares = []
        for runs in sets:
            mine = [r for r in runs if r["workload"] == w]
            shares.append(sum(r["failed"] for r in mine) / max(1, sum(r["attempted"] for r in mine)))
        if shares[1] > shares[0]:
            bad.append("%s: failed share rose from %.4g to %.4g" % (w, shares[0], shares[1]))
        values = [{}, {}]  # metric name -> values, per set
        for by_name, runs in zip(values, sets):
            for r in runs:
                if r["workload"] == w:
                    for name, m in list(r["metrics"].items()) + list(r["details"].items()):
                        by_name.setdefault(name, []).append(m["value"])
        for name in values[0]:
            if name not in values[1]:
                continue
            qa, qb = quartiles(values[0][name]), quartiles(values[1][name])
            cell = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = -delta if better.get(name) == "higher" else delta
            status, bound = "", ""
            if name in gated:
                limit = gated[name]["bound"]
                bound = "%.0f%%" % (100 * limit)
                spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
                if max(spreads) > limit:
                    status = "unresolved (spread %.1f%%)" % (100 * max(spreads))
                elif worse > limit:
                    status = "REGRESSION"
                    bad.append("%s %s worse by %.1f%% (bound %s)" % (w, name, 100 * worse, bound))
                else:
                    status = "ok"
            print(row % (w, name, cell(qa), cell(qb), "%+.1f%%" % (100 * delta), bound, status))
    for b in bad:
        print("FAIL: " + b)
    print("OK" if not bad else "FAIL: %d problem(s)" % len(bad))
    return 1 if bad else 0


def main():
    args = sys.argv[1:]
    if args[:1] == ["--compare"]:
        if len(args) != 3:
            sys.exit("usage: run.py --compare A.jsonl B.jsonl")
        sys.exit(compare(args[1], args[2]))
    binary = build()
    os.chdir(ROOT)
    # Relative, so the daemon's Unix socket path stays short.
    tmp = os.path.relpath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    sys.stdout.flush()
    os.execv(binary, [binary, "--tmp", tmp] + args)


if __name__ == "__main__":
    main()
