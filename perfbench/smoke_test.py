#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root. Every workload runs at the shortest length
(--seconds 0: three untraced scenario runs, or one traced repetition) and
must pass its correctness gate and print every metric BENCHMARK.json names,
with the unit and direction BENCHMARK.json gives. Last, run.py must refuse,
with a nonzero exit and no result line, in a directory holding only
BENCHMARK.json and perfbench/. Exits 0 when all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's metric and workload tables)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        return cond

    for group, table in (("end_to_end", run.E2E), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[group]}
        expect(declared == table, "%s in BENCHMARK.json differs from run.py" % group)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "workloads in BENCHMARK.json differ from run.py")

    for workload in sorted(run.WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace)]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            res = result_line(r.stdout)
            tag = "%s --trace %d" % (workload, trace)
            ok = expect(bool(r.returncode == 0 and res and res["correct"] and res["failed"] == 0),
                        "%s: exit %d, result %s" % (tag, r.returncode, res))
            if not res:
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok &= expect(got == want, "%s: printed %s, want %s" % (tag, got, want))
            for name, unit in want.items():
                ok &= expect(any(line.split()[:1] == [name] and line.endswith(" " + unit)
                                 for line in r.stdout.splitlines()),
                             "%s: no '%s ... %s' line" % (tag, name, unit))
            if ok:
                print("ok   %s" % tag, flush=True)

    # A directory with the benchmark but no simulator sources must be refused.
    scratch = os.path.join(run.build_dir(), "smoke")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(spec["command"] + ["--workload", "edge_cache", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                           cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=180)
        if expect(r.returncode != 0 and not r.stdout.strip(),
                  "bare directory: exit %d, stdout %r" % (r.returncode, r.stdout)):
            print("ok   refuses a directory without sources", flush=True)
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
