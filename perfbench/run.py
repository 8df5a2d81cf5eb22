#!/usr/bin/env python3
"""End-to-end benchmark of the real-thread runtimes.

One run of one workload:

    python3 perfbench/run.py --workload tpcw-rtt0 --seed 1 --seconds 25 --trace 0

builds the harness (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs it, checks correctness, prints every metric by
name with its unit and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced variant and
reports the per-layer metrics (see summarize.py). --workload all runs every
workload in turn.

Steadiness mode runs a workload N times on consecutive seeds and prints,
per end-to-end metric, the median, the quartiles and the spread relative to
the median; with --sets 2 it also checks that the second set's medians stay
within each metric's bound of the first's:

    python3 perfbench/run.py --workload tpcw-rtt0 --steady 10 --sets 2

Exit status: 0 when every correctness check passes, 1 when one fails, 2
when the benchmark cannot run (no sources to build, build failure, harness
crash). Workloads, metrics and the layer-to-metric map are described in
perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpcw-rtt0", "tpcw-wan20", "tpcc-cluster-rtt2"]
HARNESS_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import summarize  # noqa: E402


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (first time) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("runtime sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if rc != 0:
            die("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "apollo_perfbench",
         "-j", str(min(4, nproc()))], stdout=sys.stderr)
    if rc != 0:
        die("build failed")
    return os.path.join(build_dir, "apollo_perfbench")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_harness(binary, workload, seed, seconds, trace):
    out_dir = os.path.join(ROOT, ".bench_out",
                           "%s-seed%d-trace%d" % (workload, seed, trace))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("harness failed (exit %d)" % proc.returncode)
    raw = json.loads(lines[-1])
    raw["config"]["git_commit"] = git_commit()
    return raw, out_dir


def checks(raw):
    """Correctness checks; returns a list of failure descriptions."""
    bad = []
    if raw["session_violations"] > 0:
        bad.append("session_violations=%d" % raw["session_violations"])
    if raw["errors_total"] > 0 or raw["probe_errors_total"] > 0:
        bad.append("client errors: %d workload, %d probe (first: %s)" % (
            raw["errors_total"], raw["probe_errors_total"],
            raw["first_error"]))
    if raw["parse_errors"] > 0:
        bad.append("rt.parse_errors=%d" % raw["parse_errors"])
    if raw["invalidation_gaps"] > 0:
        bad.append("cluster.invalidation_gaps=%d" % raw["invalidation_gaps"])
    if raw["queries"] == 0:
        bad.append("no queries measured")
    if raw["p99_beyond"] < 10:
        bad.append("only %d samples beyond the p99 (need >= 10)"
                   % raw["p99_beyond"])
    trace = raw.get("trace")
    if trace is not None and trace["replay_errors"] > 0:
        bad.append("replay errors: %d" % trace["replay_errors"])
    return bad


def end_to_end(raw):
    """The end-to-end metrics: name -> (value, unit)."""
    attempted = raw["queries"] + raw["probe_queries"]
    failed = raw["errors"] + raw["probe_errors"]
    return {
        "qps": (raw["qps"], "1/s"),
        "query_mean_us": (raw["query_mean_us"], "us"),
        "query_p99_us": (raw["query_p99_us"], "us"),
        "error_ratio": (failed / attempted if attempted else 1.0, "ratio"),
        "session_violations": (raw["session_violations"], "count"),
        "origin_stmts_per_query": (
            raw["origin_statements"] / max(1, raw["runtime_queries"]),
            "stmts/query"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def print_config(raw):
    c = raw["config"]
    print("config: workload=%s seed=%d sessions=%d probes=%d drivers=%d "
          "pool_threads=%d edges=%d rtt_us=%d cache_bytes=%d nproc=%d "
          "git=%s" % (c["workload"], c["seed"], c["sessions"], c["probes"],
                      c["drivers"], c["pool_threads"], c["edges"],
                      c["rtt_us"], c["cache_bytes"], c["nproc"],
                      c["git_commit"]))
    print("measured %.2f s in %d passes; %d workload queries, %d probe "
          "queries (%d probe steps)" % (
              raw["measured_s"], len(raw["passes"]), raw["queries"],
              raw["probe_queries"], raw["probe_steps"]))


def run_once(workload, seed, seconds, trace, binary, spec, quiet=False):
    """Runs one workload; returns (result dict, failures)."""
    raw, out_dir = run_harness(binary, workload, seed, seconds, trace)
    bad = checks(raw)
    e2e = end_to_end(raw)
    if trace:
        layers = summarize.summarize(out_dir, raw)
        wanted = [m["name"] for m in spec["per_layer"]]
        missing = [n for n in wanted if n not in layers]
        if missing:
            bad.append("per-layer metrics missing: " + ", ".join(missing))
        metrics = {n: {"value": layers[n][0], "unit": layers[n][1]}
                   for n in wanted if n in layers}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted = raw["queries"] + raw["probe_queries"]
    failed = raw["errors"] + raw["probe_errors"]
    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"config": raw["config"], "raw": raw, "result": result,
                   "failures": bad}, f, indent=1)
    if not quiet:
        print_config(raw)
        for name, (value, unit) in e2e.items():
            extra = ""
            if name == "query_p99_us":
                extra = "  (%d samples, %d beyond p99)" % (
                    raw["p99_samples"], raw["p99_beyond"])
            print("  %-24s %14.6g %s%s" % (name, value, unit, extra))
        if trace:
            print(summarize.format_table(layers))
        for b in bad:
            print("CHECK FAILED: " + b)
        print("results: " + os.path.relpath(out_dir, ROOT))
    return result, bad


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def steady(args, binary, spec):
    worst_ok = True
    sets = []
    for k in range(args.sets):
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.steady):
            seed = args.seed + k * args.steady + i
            result, bad = run_once(args.workload, seed, args.seconds, 0,
                                   binary, spec, quiet=True)
            if bad:
                die("seed %d failed checks: %s" % (seed, "; ".join(bad)), 1)
            for name, m in result["metrics"].items():
                per_metric[name].append(m["value"])
            print("set %d seed %d: %s" % (k, seed, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)
        sets.append(per_metric)
    summary = {}
    print("%-24s %5s %12s %12s %12s %8s %6s" % (
        "metric", "set", "q1", "median", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        rows = []
        for k, per_metric in enumerate(sets):
            q1, med, q3, spread = quartile_spread(per_metric[name])
            rows.append({"q1": q1, "median": med, "q3": q3,
                         "spread": spread})
            flag = ""
            if spread > bound:
                flag, worst_ok = "  SPREAD > BOUND", False
            elif spread > bound / 3:
                flag = "  spread > bound/3"
            print("%-24s %5d %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                name, k, q1, rows[-1]["median"], q3, spread, bound, flag))
        if len(rows) > 1:
            a, b = rows[0]["median"], rows[-1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= bound
            worst_ok &= ok
            print("%-24s second median %+.4f worse than first (bound %.3f)"
                  " %s" % (name, worse, bound, "ok" if ok else "EXCEEDED"))
        summary[name] = rows
    print(json.dumps({"workload": args.workload, "steady": worst_ok,
                      "metrics": summary}))
    return 0 if worst_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="steadiness mode: N runs per set")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    binary = build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.steady:
        if args.workload == "all" or args.steady < 2:
            die("--steady needs one workload and N >= 2")
        return steady(args, binary, spec)
    if args.workload != "all":
        result, bad = run_once(args.workload, args.seed, args.seconds,
                               args.trace, binary, spec)
        print(json.dumps(result))
        return 1 if bad else 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print("== " + w)
        result, _ = run_once(w, args.seed, args.seconds, args.trace, binary,
                             spec)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
