#!/usr/bin/env python3
"""End-to-end benchmark: builds bench_e2e through bench/e2e/hook.cmake, runs
workloads, gates their outputs and prints every metric with its unit.

  python3 bench/e2e/run.py [--trace 1]           all workloads, --runs each (plus one traced run)
  python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1
                                                 one run; last stdout line is the result JSON
  python3 bench/e2e/run.py --runs 1 --seed N --out A.json
                                                 append one run per workload to a record
  python3 bench/e2e/run.py compare A.json B.json parent record A against change record B
  python3 bench/e2e/run.py --smoke               every workload path at toy scale, < 60 s
  python3 bench/e2e/run.py golden                rewrite golden/seed0.json from this tree

The run length is BENCHMARK.json's run_seconds, the same on every commit
compared; --seconds T is accepted only with that value.

See bench/e2e/README.md for the workloads, the metrics and the comparison rule.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
GOLDEN = os.path.join(HERE, "golden", "seed0.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["family_cold", "shift_grid", "serve_mixed"]
RUN_LIMIT_S = 170  # the whole run, build excluded, must end within 180 s

# Per-layer time accounts of the traced op: metric -> the spans that measure
# it. src/ emits all but the e2e.* ones, which bench_e2e wraps around its own
# public calls (prune_potential, make_corrupted) and around the serving
# collector's wait while no request is outstanding (idle).
ACCOUNTS = {
    "nn.train.share_pct": ["nn.train"],
    "nn.eval.share_pct": ["nn.evaluate", "nn.predict"],
    "core.prune.share_pct": ["prune_retrain.prune"],
    "core.potential.share_pct": ["e2e.prune_potential"],
    "corrupt.bake.share_pct": ["e2e.make_corrupted"],
    "sparse.compile.share_pct": ["sparse.compile"],
    "cache.get.share_pct": ["cache.get_state"],
    "cache.put.share_pct": ["cache.put_state"],
    "sched.cell.share_pct": ["sched.cell"],
    "serve.batch.share_pct": ["serve.batch"],
    "bench.idle_pct": ["e2e.idle"],
}

# Knobs a caller's environment could otherwise slip into a run. RP_SIMD,
# RP_SPARSE and RP_ARENA stay at their defaults; bench_e2e records what they
# resolved to.
SCRUBBED = ["RP_TRACE", "RP_OBS", "RP_FAULTS", "RP_SIMD", "RP_SPARSE", "RP_ARENA", "RP_WORKERS",
            "RP_LEASE_MS", "RP_CELL_RETRIES", "RP_POLL_MS", "RP_SERVE_BATCH", "RP_SERVE_QUEUE",
            "RP_SERVE_WAIT_US", "RP_ARENA_POISON"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures build-e2e through the hook once, then (re)builds the target."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"{ROOT} holds no source tree to build the benchmark from")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns bench_e2e's raw result."""
    work = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["RP_THREADS"] = "2"
    env["RP_CACHE_DIR"] = work
    if workload == "shift_grid":
        env["RP_WORKERS"] = "2"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work", work]
    trace_path = os.path.join(BUILD, "traces", f"{workload}.trace.json")
    if trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        cmd += ["--trace", trace_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench_e2e {workload} exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    if trace:
        raw["layers"].update(breakdown(trace_path))
    return raw


def union(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def covered(intervals):
    return sum(b - a for a, b in union(intervals))


def self_intervals(events):
    """Yields (account, start, end) for the parts of one thread's account
    spans not covered by account spans nested in them. Spans of one thread
    nest (they are RAII scopes); other spans are transparent."""
    stack = []  # [account, cursor, end]: the open span's next uncovered instant
    for account, a, b in sorted(events, key=lambda e: (e[1], -e[2])):
        while stack and stack[-1][2] <= a:
            top, cursor, end = stack.pop()
            if end > cursor:
                yield top, cursor, end
        if stack:
            parent = stack[-1]
            if a > parent[1]:
                yield parent[0], parent[1], a
            parent[1] = max(parent[1], min(b, parent[2]))
        stack.append([account, a, b])
    while stack:
        top, cursor, end = stack.pop()
        if end > cursor:
            yield top, cursor, end


def breakdown(trace_path):
    """Per-layer shares of the traced op from its trace: each account's self
    time, as the union over threads, in % of the op's wall time (so a layer
    running on two threads at once counts once, and shares of different
    layers may overlap). bench.unaccounted_pct is the part of the wall time
    no account covers on any thread."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    ops = [e for e in events if e["name"] == "e2e.op"]
    if len(ops) != 1:
        raise RuntimeError(f"{trace_path}: expected one e2e.op span, found {len(ops)}")
    t0, t1 = ops[0]["ts"], ops[0]["ts"] + ops[0]["dur"]
    account_of = {span: account for account, spans in ACCOUNTS.items() for span in spans}
    by_thread = {}
    for e in events:
        if e["name"] in account_of and e["ts"] >= t0 and e["ts"] < t1:
            end = min(e["ts"] + e["dur"], t1)
            by_thread.setdefault(e["tid"], []).append((account_of[e["name"]], e["ts"], end))
    spans = {account: [] for account in ACCOUNTS}
    for thread_events in by_thread.values():
        for account, a, b in self_intervals(thread_events):
            spans[account].append((a, b))
    wall = t1 - t0
    metrics = {name: {"value": 100.0 * covered(iv) / wall, "unit": "%"} for name, iv in spans.items()}
    accounted = covered([iv for ivs in spans.values() for iv in ivs])
    metrics["bench.unaccounted_pct"] = {"value": 100.0 * (wall - accounted) / wall, "unit": "%"}
    return metrics


def gate(raw, smoke):
    """Adds the golden comparison (seed 0, full scale) to bench_e2e's own checks."""
    attempted, failed = raw["attempted"], raw["failed"]
    errors = list(raw["errors"])
    if raw["seed"] == 0 and not smoke:
        with open(GOLDEN) as f:
            golden = json.load(f).get(raw["workload"], {})
        outputs = raw["outputs"]
        for key in sorted(set(golden) | set(outputs)):
            attempted += 1
            if golden.get(key) != outputs.get(key):
                failed += 1
                errors.append(f"{key}: golden {golden.get(key)!r}, got {outputs.get(key)!r}")
    for e in errors[:10]:
        log("check failed: " + e)
    return attempted, failed


def result_line(raw, trace, smoke):
    attempted, failed = gate(raw, smoke)
    declared = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics = raw["layers"]
    else:  # bench_e2e reports end-to-end values bare; their units are declared
        metrics = {k: {"value": v, "unit": declared.get(k)} for k, v in raw["e2e"].items()}
    if declared != {k: m["unit"] for k, m in metrics.items()}:
        raise RuntimeError("reported metrics do not match BENCHMARK.json: " +
                           " ".join(sorted(set(declared) ^ set(metrics))))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def cmd_suite(args, seconds):
    """Runs every workload --runs times (plus one traced run each with
    --trace 1) and prints median and quartiles per metric; --out appends the
    runs to a record."""
    spec = load_spec()
    record = {"runs": []}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    ok = True
    new_runs = []
    for workload in WORKLOADS:
        for i in range(args.runs):
            seed = args.seed + i
            raw = run_once(workload, seed, seconds, trace=False)
            res = result_line(raw, False, False)
            ok &= res["correct"]
            new_runs.append({"workload": workload, "seed": seed, "correct": res["correct"],
                             "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                             "provenance": raw["provenance"]})
    print(f"commit {git_sha()}  nproc {os.cpu_count()}  loadavg {os.getloadavg()[0]:.2f}  "
          f"run {seconds} s")
    print(f"{'workload':12} {'metric':14} {'unit':5} {'median':>12} {'q1':>12} {'q3':>12}  n")
    for workload in WORKLOADS:
        runs = [r for r in new_runs if r["workload"] == workload]
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            q1, q2, q3 = quartiles([r["metrics"][name] for r in runs])
            print(f"{workload:12} {name:14} {unit:5} {q2:12.6g} {q1:12.6g} {q3:12.6g}  {len(runs)}")
    if args.trace:
        for workload in WORKLOADS:
            raw = run_once(workload, args.seed, seconds, trace=True)
            res = result_line(raw, True, False)
            ok &= res["correct"]
            print(f"\n{workload} per-layer (one traced run, trace in build-e2e/traces/):")
            for name, m in res["metrics"].items():
                print(f"  {name:28} {m['value']:14.6g} {m['unit']}")
    record["runs"] += [dict(r, commit=git_sha()) for r in new_runs]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


def cmd_compare(path_a, path_b):
    """Parent record A against change record B, pairing the i-th runs of each
    workload: a gain needs >= 10 pairs, B winning >= 9 in 10, and medians
    further apart than A's quartile spread; a regression is B's median worse
    than A's by more than the BENCHMARK.json bound. Where A's own spread
    exceeds the bound the metric is unresolved, not unchanged."""
    spec = load_spec()
    with open(path_a) as f:
        runs_a = json.load(f)["runs"]
    with open(path_b) as f:
        runs_b = json.load(f)["runs"]
    regressions = 0
    print(f"{'workload':12} {'metric':14} {'median A':>12} {'median B':>12} {'change':>8} "
          f"{'B wins':>7}  verdict")
    for workload in WORKLOADS:
        a = [r for r in runs_a if r["workload"] == workload]
        b = [r for r in runs_b if r["workload"] == workload]
        pairs = min(len(a), len(b))
        if pairs == 0:
            continue
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["metrics"][name] for r in a[:pairs]]
            vb = [r["metrics"][name] for r in b[:pairs]]
            q1, med_a, q3 = quartiles(va)
            med_b = statistics.median(vb)
            worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
            wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
            spread = (q3 - q1) / med_a
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif pairs >= 10 and wins >= 0.9 * pairs and abs(med_b - med_a) > q3 - q1:
                verdict = "gain"
            elif spread > bound and not all((y < min(va)) if lower else (y > max(va)) for y in vb):
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            if pairs < 10 and verdict == "unchanged":
                verdict = f"unchanged ({pairs} pairs < 10)"
            print(f"{workload:12} {name:14} {med_a:12.6g} {med_b:12.6g} {100 * worse:+7.2f}% "
                  f"{wins:3d}/{pairs:<3d}  {verdict}")
    return 1 if regressions else 0


def cmd_smoke():
    start = time.monotonic()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            raw = run_once(workload, 1, 1, trace, smoke=True)
            res = result_line(raw, trace, True)
            ok &= res["correct"] and bool(res["metrics"])
            log(f"smoke {workload} trace={int(trace)}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']}")
    log(f"smoke {'passed' if ok else 'FAILED'} in {time.monotonic() - start:.1f} s")
    return 0 if ok else 1


def cmd_golden():
    golden = {}
    for workload in ("family_cold", "shift_grid"):
        raw = run_once(workload, 0, 1, trace=False)
        if raw["failed"]:
            raise RuntimeError(f"{workload} failed its own checks: {raw['errors']}")
        golden[workload] = raw["outputs"]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {GOLDEN}")
    return 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("command", nargs="*", metavar="golden | compare A.json B.json")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, help="must equal BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="single run: report the per-layer metrics; suite: add one traced run each")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.runs < 1:
        p.error("--seed must be >= 0 and --runs >= 1")
    compare = args.command[:1] == ["compare"]
    if (compare and len(args.command) != 3) or (not compare and args.command not in ([], ["golden"])):
        p.error("commands: golden | compare A.json B.json")
    try:
        if compare:
            return cmd_compare(args.command[1], args.command[2])
        seconds = load_spec()["run_seconds"]
        if args.seconds not in (None, seconds):
            p.error(f"--seconds {args.seconds}: the run length is BENCHMARK.json's run_seconds "
                    f"({seconds}), so that runs of two commits compare")
        build()
        if args.smoke:
            return cmd_smoke()
        if args.command == ["golden"]:
            return cmd_golden()
        if args.workload:
            raw = run_once(args.workload, args.seed, seconds, bool(args.trace))
            res = result_line(raw, bool(args.trace), False)
            print(json.dumps(res), flush=True)
            return 0 if res["correct"] else 1
        return cmd_suite(args, seconds)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
