#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the f2tree simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, then:

  --trace 0  runs perfbench_e2e: the workload in a closed loop of whole
             rounds that fit in S seconds, through core::run_udp_condition
             or exec::run_campaign, and reports the end-to-end metrics of
             BENCHMARK.json, rescaled to the reference kernel's nominal
             speed (at_reference).
  --trace 1  runs perfbench_e2e once for the untraced reference, then
             perfbench_trace, which composes the same run from module calls,
             checks it reproduces the reference exactly, writes its spans to
             .bench_build/perfbench/spans-<workload>-<seed>.json, and
             reports the per-layer metrics of BENCHMARK.json.
  --smoke    self-test at k=4: every metric is emitted with its unit, span
             files parse, and two same-seed invocations agree.

Without --workload it runs every workload in turn, each in its own
processes, and prints each one's report.

Every run's outputs are checked: against pinned values for seed 1 at the
workload's own fabric size, against seed-independent invariants otherwise.
packet-tcp-k8 cycles through recover seeds 1..12 starting at --seed (see
run_seed in workloads.hpp), so each run carries its own seed. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
When a workload yields no measurement at all, that object counts every
attempted run as failed and carries no metric, and the exit code is 1.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170  # one invocation must end within 180 s

# Nominal reference_seconds() (perfbench/reference.hpp). perfbench_e2e
# times that fixed kernel on a run's CPU before and after the run (and
# during a campaign); the median is the run's ref_s. Each run's wall and
# set-up time are reported at the kernel's nominal speed (at_reference).
# On a shared host this takes out most of the drift other tenants cause.
REFERENCE_S = 0.010

# How strongly each workload's times follow the kernel's. On a shared VM
# the slope of log(run wall) on log(ref_s) was 0.81 for packet-tcp-k8,
# 0.90 for campaign-k8, and 0.35 to 0.73 for flow-central-k32, whose time
# goes to two controller recomputes rather than to a busy event queue
# (README.md, Steadiness).
SENSITIVITY = {
    "packet-tcp-k8": 1.0,
    "flow-central-k32": 0.5,
    "campaign-k8": 1.0,
}

WORKLOADS = {
    "packet-tcp-k8": 8,
    "flow-central-k32": 32,
    "campaign-k8": 8,
}

# Outputs of seed 1 at each workload's own fabric size.
PINS = {
    "packet-tcp-k8": {"gap_ns": 60116920, "packets_lost": 951,
                      "flows_launched": 725, "flows_completed": 724},
    "flow-central-k32": {"gap_ns": 114100000, "packets_lost": 1140},
    "campaign-k8": {"digest": "59f14b4d97d96851", "shards": 512},
}

# Fields the traced run must reproduce from the untraced one. Of these,
# only the arrivals digest moves when the whole loss window shifts in time.
DRIFT_FIELDS = ("gap_ns", "arrivals", "packets_sent", "packets_lost",
                "events", "flows_completed")


def at_reference(workload, seconds, ref_s):
    """`seconds` timed while the kernel took `ref_s`, at its nominal speed."""
    return seconds * (REFERENCE_S / ref_s) ** SENSITIVITY[workload]


class RunFailed(Exception):
    """A workload yielded no measurement: every attempted run failed."""

    def __init__(self, message, attempted=1):
        super().__init__(message)
        self.attempted = attempted


def is_measured(name):
    """Timings, memory and schedule-dependent counts: the smoke test does
    not expect these to repeat between two invocations."""
    return name.endswith(("_s", "_ms", "_mb", "_share", "_efficiency")) or \
        name in ("sim.ns_per_event", "exec.steals")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and builds both programs; exits on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      "perfbench_e2e", "perfbench_trace"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(step))


def drive(binary, args, started):
    """Runs one of them and returns its JSON; raises RunFailed otherwise."""
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise RunFailed("out of time before " + binary)
    try:
        done = subprocess.run([str(BUILD / binary)] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise RunFailed(binary + " timed out")
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise RunFailed("%s failed with code %d" % (binary, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_run(workload, ports, seed, out):
    """Problems with one run's outputs (empty when it passes)."""
    if "error" in out:
        return ["threw: " + out["error"]]
    problems = []
    if workload == "campaign-k8":
        if out["errors"]:
            problems.append("%d shard error records" % out["errors"])
        if out.get("not_ok", 0):
            problems.append("%d shards without a scenario" % out["not_ok"])
    else:
        if not out["ok"]:
            problems.append("no scenario plan")
        gap_ms = out["gap_ns"] / 1e6
        if workload == "packet-tcp-k8" and not 60.0 <= gap_ms < 61.0:
            problems.append("F2 gap %.3f ms is off the 60 ms floor" % gap_ms)
        if (workload == "flow-central-k32" and ports == WORKLOADS[workload]
                and round(gap_ms, 1) != 114.1):
            problems.append("fat+central gap %.3f ms != 114.1 ms" % gap_ms)
        if out["flows_completed"] > out["flows_launched"]:
            problems.append("more flows completed than launched")
    if seed == 1 and ports == WORKLOADS[workload]:
        for key, want in PINS[workload].items():
            if out.get(key) != want:
                problems.append("%s = %s, pinned %s" % (key, out.get(key), want))
    return problems


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, seed, seconds, ports, started):
    """--trace 0: the end-to-end metrics of untraced runs."""
    e2e = drive("perfbench_e2e",
                ["--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--ports", str(ports)], started)
    campaign = workload == "campaign-k8"
    problems, round_walls, setups, raw_walls, refs = [], [], [], [], []
    attempted = failed = timed = 0
    for units in e2e["rounds"]:
        walls = []
        for unit in units:
            # A campaign's runs are its shards; a failed check fails them all.
            runs = max(unit.get("shards", 0), 1) if campaign else 1
            bad = check_run(workload, ports, unit.get("seed", seed), unit)
            attempted += runs
            if bad:
                failed += runs
                problems += bad
            if "wall_s" in unit:
                walls.append(at_reference(workload, unit["wall_s"],
                                          unit["ref_s"]))
                setups.append(at_reference(workload, unit["setup_s"],
                                           unit["ref_s"]))
                raw_walls.append(unit["wall_s"])
                refs.append(unit["ref_s"])
        if walls:
            # A round runs each seed of the pool once, so its mean weighs
            # the seeds equally whatever their cost.
            round_walls.append(statistics.fmean(walls))
            timed += len(walls)
    if not round_walls:
        raise RunFailed("every run threw: " + "; ".join(problems[:3]),
                        attempted)
    values = {
        "run_wall_s": statistics.median(round_walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    lines = ["%s seed %d k=%d: %d rounds, %d runs timed, --seconds %g" %
             (workload, seed, ports, len(e2e["rounds"]), timed, seconds)]
    lines.append("  run_wall_s   %10.4f s  (median of %d round means)" %
                 (values["run_wall_s"], len(round_walls)))
    lines.append("               unscaled: run wall median %.4f s, reference "
                 "median %.3f ms (nominal %.3f ms)" %
                 (statistics.median(raw_walls), 1e3 * statistics.median(refs),
                  1e3 * REFERENCE_S))
    if campaign:
        first = e2e["rounds"][0][0]
        shards = first.get("shards", 0)
        lines.append("  runs_per_s   %10.2f runs/s  (%d shards, J=%s)" %
                     (shards / values["run_wall_s"], shards, first.get("jobs")))
    lines.append("  setup_s      %10.4f s  (median of %d set-ups)" %
                 (values["setup_s"], len(setups)))
    lines.append("  peak_rss_mb  %10.1f MB" % values["peak_rss_mb"])
    return values, attempted, failed, problems, lines, e2e


def trace(workload, seed, ports, started, spans_path):
    """--trace 1: the per-layer metrics of a traced run, drift-checked."""
    ref = drive("perfbench_e2e",
                ["--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--ports", str(ports)], started)
    traced = drive("perfbench_trace",
                   ["--workload", workload, "--seed", str(seed),
                    "--ports", str(ports), "--spans", str(spans_path)],
                   started)
    out = traced["outputs"]
    ref_out = ref["rounds"][0][0]
    if workload == "campaign-k8":
        drift = []
        if out["digest"] != ref_out.get("digest"):
            drift.append("campaign digest %s != untraced %s" %
                         (out["digest"], ref_out.get("digest")))
        if out["composed_mismatches"]:
            drift.append("%d composed shards differ from their campaign "
                         "records or untraced runs" %
                         out["composed_mismatches"])
    else:
        drift = ["%s: traced %s != untraced %s" % (k, out[k], ref_out.get(k))
                 for k in DRIFT_FIELDS if out[k] != ref_out.get(k)]
    run_seed = ref_out.get("seed", seed)
    ref_bad = check_run(workload, ports, run_seed, ref_out)
    traced_bad = check_run(workload, ports, run_seed, out) + drift
    spans = json.loads(spans_path.read_text())
    if not spans["traceEvents"]:
        traced_bad.append("empty span file")
    metrics = dict(traced["metrics"])
    # Both walls at reference speed, like run_wall_s; the untraced one is
    # absent when the run threw.
    metrics["trace.traced_wall_s"] = at_reference(
        workload, metrics["trace.traced_wall_s"], traced["ref_s"])
    untraced_wall = 0
    if "wall_s" in ref_out:
        untraced_wall = at_reference(workload, ref_out["wall_s"],
                                     ref_out["ref_s"])
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_share"] = \
        (metrics["trace.traced_wall_s"] - untraced_wall) / untraced_wall \
        if untraced_wall > 0 else 0
    failed = int(bool(ref_bad)) + int(bool(traced_bad))
    lines = ["%s seed %d k=%d traced: %d spans -> %s" %
             (workload, seed, ports, len(spans["traceEvents"]), spans_path),
             "  trace.overhead_share %.4f (traced %.4f s vs untraced %.4f s)" %
             (metrics["trace.overhead_share"], metrics["trace.traced_wall_s"],
              untraced_wall)]
    return metrics, 2, failed, ref_bad + traced_bad, lines, traced


def emit(values, units, attempted, failed, problems, lines):
    missing = [name for name in units if name not in values]
    if missing:
        sys.exit("perfbench: metrics not measured: %s" % missing)
    for line in lines:
        print(line)
    print("  output check: %s" % ("ok" if not problems else
                                   "FAILED: " + "; ".join(problems[:5])))
    print("  runs attempted %d, failed %d" % (attempted, failed))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def smoke_workload(workload, end_to_end, per_layer, started):
    """Problems the self-test finds with one workload at k=4, seed 3."""
    problems, seen = [], []
    for attempt in range(2):
        values, _, failed, bad, _, e2e = measure(workload, 3, 0, 4, started)
        spans = BUILD / ("smoke-%s-%d.json" % (workload, attempt))
        layers, _, traced_failed, traced_bad, _, traced = trace(
            workload, 3, 4, started, spans)
        for wanted, got in ((end_to_end, values), (per_layer, layers)):
            problems += ["%s not emitted" % name
                         for name, unit in wanted.items()
                         if name not in got or not unit]
        problems += bad + traced_bad
        if failed or traced_failed:
            problems.append("a run failed")
        runs = [unit for units in e2e["rounds"] for unit in units]
        seen.append((
            [{k: v for k, v in r.items()
              if k not in ("wall_s", "setup_s", "ref_s")} for r in runs],
            traced["outputs"],
            {k: v for k, v in layers.items() if not is_measured(k)}))
    if seen[0] != seen[1]:
        problems.append("two seed-3 invocations differ")
    return problems


def smoke(started):
    """Self-test at k=4; returns the process exit code."""
    end_to_end, per_layer = metric_spec()
    failing = 0
    for workload in WORKLOADS:
        try:
            problems = smoke_workload(workload, end_to_end, per_layer, started)
        except RunFailed as e:
            problems = [str(e)]
        print("smoke %-17s %s" % (workload, "FAIL" if problems else "ok"))
        for p in problems:
            print("  " + p)
        failing += bool(problems)
    print("smoke: %s" % ("FAIL" if failing else "pass"))
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    build()
    if args.smoke:
        return smoke(time.monotonic())
    end_to_end, per_layer = metric_spec()
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        started = time.monotonic()
        ports = WORKLOADS[workload]
        try:
            if args.trace:
                spans = BUILD / ("spans-%s-%d.json" % (workload, args.seed))
                result, units = trace(workload, args.seed, ports, started,
                                      spans), per_layer
            else:
                result, units = measure(workload, args.seed, args.seconds,
                                        ports, started), end_to_end
        except RunFailed as e:
            log("perfbench: %s: %s" % (workload, e))
            print(json.dumps({"correct": False, "attempted": e.attempted,
                              "failed": e.attempted, "metrics": {}}))
            return 1
        values, attempted, failed, problems, lines, _ = result
        emit(values, units, attempted, failed, problems, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
