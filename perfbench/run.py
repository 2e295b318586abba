#!/usr/bin/env python3
"""Repo benchmark: scenario wall-clock end to end, per-layer costs traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, writes the workload's .scn with the
[workload] seed taken from --seed, and repeats one-scenario processes until
--seconds have passed.

--trace 0 prints the end-to-end metrics (medians over the repetitions);
--trace 1 prints the per-layer metrics of a traced run. Either way every
repetition passes the correctness gate, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A failed gate
prints that line with "correct": false and exits 1. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 42  # the held-out seed is in README.md
PROC_TIMEOUT_S = 60
MIN_PLAIN_REPS = 3  # the byte-identity gate needs repeats


# workload -> its .scn template in perfbench/scenarios/. All run serially;
# the traced run adds the same config at 2 shards. Why each workload exists:
# perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "fat_tree_10k": "fat_tree_10k.scn",
    "edge_cache": "fat_tree_cache.scn",
    "edge_cache_churn": "fat_tree_cache_churn.scn",
}

# name -> (unit, better). What each metric measures: perfbench/README.md;
# smoke_test.py checks that BENCHMARK.json and the printed lines agree.
E2E = {
    "sim_speed": ("sim-s/s", "higher"),
    "pkts_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "completed_share": ("ratio", "higher"),
    "origin_share": ("ratio", "lower"),
}

PER_LAYER = {
    "scenario.topology_build_s": ("s", "lower"),
    "scenario.workload_build_s": ("s", "lower"),
    "runtime.install_s": ("s", "lower"),
    "net.node.fwd_calls": ("count", "lower"),
    "net.node.fwd_ns": ("ns/call", "lower"),
    "net.node.route_cache_hit_ratio": ("ratio", "higher"),
    "scenario.host_rx_calls": ("count", "lower"),
    "scenario.host_rx_ns": ("ns/call", "lower"),
    "net.residual_ns_per_pkt": ("ns/pkt", "lower"),
    "net.medium.deliveries": ("count", "higher"),
    "net.medium.drops_queue": ("count", "lower"),
    "net.medium.drops_loss": ("count", "lower"),
    "runtime.asp_rx_pkts": ("count", "higher"),
    "runtime.asp_handled": ("count", "higher"),
    "runtime.asp_passed": ("count", "lower"),
    "runtime.planp_over_native": ("ratio", "lower"),
    "runtime.asp_ns_per_pkt": ("ns/pkt", "lower"),
    "planp.cache.hit_ratio": ("ratio", "higher"),
    "planp.cache.fills": ("count", "lower"),
    "planp.cache.evictions": ("count", "lower"),
    "mem.allocs_per_pkt": ("1/pkt", "lower"),
    "mem.pool_misses_per_pkt": ("1/pkt", "lower"),
    "mem.spills": ("count", "lower"),
    "net.exec.shards": ("count", "higher"),
    "net.exec.islands": ("count", "higher"),
    "net.exec.speedup": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "workload.failed_share": ("ratio", "lower"),
}


class GateError(Exception):
    """A repetition's output is wrong: the run counts as failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fnv1a64(text):
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds pb_run and pb_trace; returns their dir."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out


def render_scn(template, seed, cache=None):
    """The template with [workload] seed (and [asp] cache) replaced."""
    with open(os.path.join(HERE, "scenarios", template)) as f:
        lines = f.read().splitlines()
    section, seen = None, set()
    for i, line in enumerate(lines):
        s = line.strip()
        if s.startswith("["):
            section = s
            continue
        key = s.split("=", 1)[0].strip()
        if section == "[workload]" and key == "seed":
            lines[i] = "seed = %d" % seed
            seen.add("seed")
        elif section == "[asp]" and key == "cache" and cache is not None:
            lines[i] = "cache = " + cache
            seen.add("cache")
    if "seed" not in seen or (cache is not None and "cache" not in seen):
        raise SystemExit("perfbench: template %s lacks a key to override" % template)
    return "\n".join(lines) + "\n"


def median(xs):
    return statistics.median(xs)


def share(num, den):
    return num / den if den else 0.0


class Runner:
    """Runs one workload's scenario processes, gates every output, and counts
    attempts and failures."""

    def __init__(self, bindir, workload, seed):
        self.bindir = bindir
        self.template = WORKLOADS[workload]
        # The scenario name in the metrics JSON: the template stem.
        self.name = os.path.splitext(self.template)[0]
        self.has_cache = self.template.startswith("fat_tree_cache")
        self.seed = seed
        self.reference = None  # metrics JSON of the first untraced run
        self.attempted = 0
        self.failed = 0

    def fail(self, msg):
        self.failed += 1
        raise GateError(msg)

    def scn(self, cache=None):
        """Writes the generated config (the program's only input)."""
        gen = os.path.join(self.bindir, "gen")
        os.makedirs(gen, exist_ok=True)
        path = os.path.join(gen, "%s-seed%d%s.scn" % (self.name, self.seed,
                                                     "-" + cache if cache else ""))
        with open(path, "w") as f:
            f.write(render_scn(self.template, self.seed, cache))
        return path

    def call(self, exe, scn, *args):
        cmd = [os.path.join(self.bindir, exe), "--scn", scn, "--name", self.name, *args]
        self.attempted += 1
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=PROC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail("%s timed out after %d s" % (exe, PROC_TIMEOUT_S))
        if r.returncode != 0:
            self.fail("%s exited %d: %s" % (exe, r.returncode, r.stderr.strip()))
        try:
            out = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail("%s printed no result line" % exe)
        if out.get("spills", 0) != 0:
            self.fail("%d pool spills (must stay 0)" % out["spills"])
        return out

    def run(self, exe, scn, shards=1):
        """One scenario process whose metrics JSON must equal the first
        untraced run's byte for byte and pass the output checks."""
        r = self.call(exe, scn, "--shards", str(shards))
        text = r["metrics_json"]
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            self.fail("%s at %d shards: metrics JSON differs from the first run of this seed"
                      % (exe, shards))
        m = r["metrics"] = json.loads(text)
        if m["delivered_packets"] <= 0:
            self.fail("no packet was delivered")
        if m["completed"] > m["requests"]:
            self.fail("completed %d > requests %d" % (m["completed"], m["requests"]))
        if self.has_cache and m["cache_hits"] <= 0:
            self.fail("a cache is configured but never hit")
        return r


def run_untraced(runner, seconds):
    scn = runner.scn()
    plain = []
    t_end = time.monotonic() + seconds
    while len(plain) < MIN_PLAIN_REPS or time.monotonic() < t_end:
        plain.append(runner.run("pb_run", scn))
    m = plain[0]["metrics"]
    sim_s = m["sim_time_ns"] / 1e9
    return plain, {
        "sim_speed": median([sim_s / r["run_s"] for r in plain]),
        "pkts_per_s": median([m["delivered_packets"] / r["run_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "completed_share": share(m["completed"], m["requests"]),
        "origin_share": share(m["origin_requests"], m["completed"]),
    }


def run_traced(runner, seconds):
    """Repeats a group until `seconds` pass: an untraced run, a traced run,
    the set-up split, a 2-shard run and, with a cache, the native-cache twin.
    The traced and 2-shard metrics JSON must equal the untraced one."""
    scn = runner.scn()
    native = runner.scn(cache="native") if runner.has_cache else None
    plain, traced, split, sharded, twin = [], [], [], [], []
    t_end = time.monotonic() + seconds
    while not traced or time.monotonic() < t_end:
        plain.append(runner.run("pb_run", scn))
        traced.append(runner.run("pb_trace", scn))
        split.append(runner.call("pb_run", scn, "--split"))
        sharded.append(runner.run("pb_run", scn, shards=2))
        if native:
            n = runner.call("pb_run", native, "--shards", "1")
            nm, pm = json.loads(n["metrics_json"]), plain[0]["metrics"]
            for k in ("cache_hits", "cache_misses", "cache_fills"):
                if nm[k] != pm[k]:
                    runner.fail("planp and native caches disagree on %s: %d vs %d"
                                % (k, pm[k], nm[k]))
            twin.append(n)

    m = plain[0]["metrics"]
    deliveries = m["delivered_packets"]
    t0 = traced[0]
    run_plain = median([r["run_s"] for r in plain])
    metrics = {
        "scenario.topology_build_s": median([r["topology_build_s"] for r in split]),
        "scenario.workload_build_s": median([r["workload_build_s"] for r in split]),
        "runtime.install_s": 0.0,
        "net.node.fwd_calls": t0["fwd_calls"],
        "net.node.fwd_ns": median([share(r["fwd_ns"], r["fwd_calls"]) for r in traced]),
        "net.node.route_cache_hit_ratio": share(
            t0["route_cache_hits"], t0["route_cache_hits"] + t0["route_cache_misses"]),
        "scenario.host_rx_calls": t0["host_rx_calls"],
        "scenario.host_rx_ns": median([share(r["host_rx_ns"], r["host_rx_calls"]) for r in traced]),
        "net.residual_ns_per_pkt": median([
            (r["run_s"] * 1e9 - r["fwd_ns"] - r["host_rx_ns"]) / deliveries for r in traced]),
        "net.medium.deliveries": deliveries,
        "net.medium.drops_queue": m["dropped_queue"],
        "net.medium.drops_loss": m["dropped_loss"],
        "runtime.asp_rx_pkts": t0["asp_rx_pkts"],
        "runtime.asp_handled": t0["asp_handled"],
        "runtime.asp_passed": t0["asp_passed"],
        "runtime.planp_over_native": 0.0,
        "runtime.asp_ns_per_pkt": 0.0,
        "planp.cache.hit_ratio": share(m["cache_hits"], m["cache_hits"] + m["cache_misses"]),
        "planp.cache.fills": m["cache_fills"],
        "planp.cache.evictions": m["cache_evictions"],
        "mem.allocs_per_pkt": median([r["allocs"] / deliveries for r in traced]),
        "mem.pool_misses_per_pkt": median([r["pool_misses"] / deliveries for r in traced]),
        "mem.spills": max(r["spills"] for r in traced),
        "net.exec.shards": sharded[0]["shards"],
        "net.exec.islands": sharded[0]["islands"],
        "net.exec.speedup": run_plain / median([r["run_s"] for r in sharded]),
        "trace.overhead": median([r["run_s"] for r in traced]) / run_plain,
        "workload.failed_share": share(m["timeouts"], m["requests"]),
    }
    if native:
        # Every template with a cache also installs the core monitors; the
        # others install no ASP, where the remainder would be pure noise.
        metrics["runtime.install_s"] = median(
            [r["setup_s"] - r["topology_build_s"] - r["workload_build_s"] for r in split])
        run_native = median([r["run_s"] for r in twin])
        metrics["runtime.planp_over_native"] = run_plain / run_native
        # The pair differs only in the edge-cache tier, so the extra wall
        # time is spread over the packets that tier received.
        metrics["runtime.asp_ns_per_pkt"] = (run_plain - run_native) * 1e9 / t0["cache_rx_pkts"]
    return plain, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not os.path.exists(os.path.join(ROOT, "src", "scenario", "scenario.hpp")):
        log("perfbench: no simulator sources at %s/src; run from a repository checkout" % ROOT)
        return 2
    runner = Runner(build(build_dir()), args.workload, args.seed)
    try:
        if args.trace:
            plain, values = run_traced(runner, args.seconds)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            plain, values = run_untraced(runner, args.seconds)
            units = {k: u for k, (u, _) in E2E.items()}
        correct = True
    except GateError as e:
        log("perfbench: correctness gate failed on %s seed %d: %s" % (args.workload, args.seed, e))
        plain, values, units, correct = [], {}, {}, False

    if plain:
        print("workload %s seed %d: %d scenario runs, metrics JSON fnv1a64 %s"
              % (args.workload, args.seed, len(plain), fnv1a64(plain[0]["metrics_json"])))
    for k, v in values.items():
        print("%-34s %16.6g %s" % (k, v, units[k]))
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
