#!/usr/bin/env python3
"""Per-layer summary of one traced benchmark run.

Reads what a `--trace 1` run leaves in its results directory
(.bench_out/<workload>-seed<n>-trace1/):

  spans.jsonl     benchmark-side spans: interaction, execute, probe, and
                  replay.admit / replay.exec (parent = originating request)
  metrics.jsonl   one MetricsRegistry export per measured pass, plus the
                  template-cache and database counters the registry lacks
  tracelog.jsonl  the runtime TraceLog (prediction lifecycle events)
  result.json     the harness's raw facts (written by run.py)

and turns them into the per-layer metrics of BENCHMARK.json. Every ratio
keeps its base (numerator and denominator), printed next to it.

    python3 perfbench/summarize.py .bench_out/tpcw-rtt0-seed1-trace1

Counter ratios cover the measured phase (first to last pass export).
Registry p99s (learn-lock wait, pool queue wait) are cumulative since the
runtime started, warm-up included: histograms cannot be differenced.
"""
import json
import os
import sys


def _read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _percentile(sorted_values, p):
    if not sorted_values:
        return 0.0
    i = min(len(sorted_values) - 1, int(len(sorted_values) * p / 100))
    return sorted_values[i]


class _Registry:
    """Sums one runtime instrument over the deployment's metric prefixes."""

    def __init__(self, prefixes):
        self.prefixes = prefixes

    def get(self, rec, name):
        reg = rec["registry"]
        return sum(reg.get(p + name, 0.0) for p in self.prefixes)

    def hist_sum(self, rec, name):
        reg = rec["registry"]
        return sum(reg.get(p + name + ".mean", 0.0) *
                   reg.get(p + name + ".count", 0.0) for p in self.prefixes)

    def worst_p99(self, rec, match):
        vals = [v for k, v in rec["registry"].items()
                if k.endswith(".p99") and any(k.startswith(p)
                                              for p in self.prefixes)
                and match(k[:-4])]
        return max(vals, default=0.0)


def summarize(out_dir, raw):
    """Returns {metric: (value, unit, base)}; base is "" or "num/den"."""
    recs = _read_jsonl(os.path.join(out_dir, "metrics.jsonl"))
    spans = _read_jsonl(os.path.join(out_dir, "spans.jsonl"))
    events = _read_jsonl(os.path.join(out_dir, "tracelog.jsonl"))
    trace = raw["trace"]
    reg = _Registry(trace["prefixes"])
    first, last = recs[0], recs[-1]
    traced = [r for r in recs if r["kind"] == "traced"]
    # Previous export of each traced pass, for per-pass deltas.
    before = {r["pass"]: recs[i - 1] for i, r in enumerate(recs) if i > 0}

    def delta(name):
        return reg.get(last, name) - reg.get(first, name)

    def traced_delta(name):
        return sum(reg.get(r, name) - reg.get(before[r["pass"]], name)
                   for r in traced)

    def hdelta(name):
        return (reg.hist_sum(last, name) - reg.hist_sum(first, name),
                reg.get(last, name + ".count") -
                reg.get(first, name + ".count"))

    out = {}

    def ratio(name, num, den, unit="ratio"):
        out[name] = (num / den if den else 0.0, unit,
                     "%.6g/%.6g" % (num, den))

    def value(name, v, unit):
        out[name] = (v, unit, "")

    durations = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end_us"] - s["start_us"])
    for v in durations.values():
        v.sort()

    queries = delta("queries")

    # sql: admission.
    fast = last["tcache_fast"] - first["tcache_fast"]
    fallbacks = last["tcache_fallbacks"] - first["tcache_fallbacks"]
    ratio("sql.admit_fast_ratio", fast, fast + fallbacks)
    fs, fc = hdelta("latency.admit_fast_wall_us")
    ss, sc = hdelta("latency.admit_full_wall_us")
    ratio("sql.admit_us_mean", fs + ss, fc + sc, "us")
    value("sql.replay_admit_us_p50",
          _percentile(durations.get("replay.admit", []), 50), "us")

    # db: origin execution.
    exec_us = durations.get("replay.exec", [])
    ratio("db.replay_exec_us_mean", sum(exec_us), len(exec_us), "us")
    value("db.replay_exec_us_p99", _percentile(exec_us, 99), "us")
    ratio("db.rows_examined_per_stmt",
          last["db_rows_examined"] - first["db_rows_examined"],
          last["db_queries"] - first["db_queries"], "rows/stmt")

    # cache.
    hits, misses = delta("cache_hits"), delta("cache_misses")
    ratio("cache.hit_ratio", hits, hits + misses)
    ratio("cache.evictions_per_put", delta("cache.evictions"),
          delta("cache.puts"))

    # core: learning and prediction.
    ratio("core.predictions_per_query", delta("predictions_issued"), queries,
          "preds/query")
    # The rt runtime records no prediction_cached events, so precision is
    # taken over predictions issued: predicted cache entries that served
    # their first hit (prediction_hit with aux == 1) per prediction issued,
    # both counted in traced passes only.
    first_hits = sum(1 for e in events
                     if e["type"] == "prediction_hit" and e["aux"] == 1)
    ratio("core.prediction_precision", first_hits,
          traced_delta("predictions_issued"))
    value("core.prediction_cached_events",
          sum(1 for e in events if e["type"] == "prediction_cached"),
          "count")
    ratio("core.predictions_skipped_per_query", delta("predictions_skipped"),
          queries, "skips/query")
    value("core.fdqs_discovered", reg.get(last, "fdqs_discovered"), "count")
    value("core.fdqs_invalidated", reg.get(last, "fdqs_invalidated"),
          "count")
    value("core.learn_lock_wait_us_p99", reg.worst_p99(
        last, lambda k: k.endswith("latency.learn_lock_wait_wall_us")), "us")

    # rt: pool, gateway, single-flight.
    value("rt.pool.queue_wait_us_p99", reg.worst_p99(
        last, lambda k: ".pool.worker" in k and
        k.endswith(".queue_wait_wall_us")), "us")
    ratio("rt.pool.rejected_predictive_ratio",
          delta("pool.rejected_predictive"), delta("pool.submitted_predictive"))
    ratio("rt.gateway.trips_per_query", delta("gateway.batches"), queries,
          "trips/query")
    ratio("rt.gateway.batch_size_mean", delta("gateway.batch_statements"),
          delta("gateway.batches"), "stmts/trip")
    ratio("rt.coalesced_ratio", delta("coalesced_waits"), delta("reads"))

    # cluster: replication and routing (a single runtime is one edge).
    ratio("cluster.invalidations_applied_per_write",
          delta("invalidations_applied"), delta("writes"), "applied/write")
    value("cluster.invalidations_duplicate",
          delta("invalidations_duplicate"), "count")
    value("cluster.invalidation_gaps", reg.get(last, "invalidation_gaps"),
          "count")
    per_edge = [_Registry([p]).get(last, "queries") -
                _Registry([p]).get(first, "queries") for p in reg.prefixes]
    ratio("cluster.edge_query_share_max", max(per_edge), sum(per_edge))
    bench_ns = sum(r["bench_exec_ns_sum"] for r in recs[1:])
    bench_n = sum(r["queries"] + r["probe_queries"] for r in recs[1:])
    ws, wc = hdelta("latency.query_wall_us")
    bench_mean = bench_ns / 1e3 / bench_n if bench_n else 0.0
    wall_mean = ws / wc if wc else 0.0
    out["cluster.execute_overhead_us"] = (
        bench_mean - wall_mean, "us",
        "%.6g-%.6g" % (bench_mean, wall_mean))

    # persist: learned-state size after the measured phase.
    value("persist.snapshot_bytes", trace["snapshot_bytes"], "bytes")
    value("persist.snapshot_ms", trace["snapshot_ms"], "ms")

    # driver and tracing.
    out["driver.session_think_ms_mean"] = (
        trace["think_ms_mean"], "ms", "%d samples" % trace["think_samples"])
    value("query_p50_us", trace["query_p50_us"], "us")
    out["query_p99_us"] = (raw["query_p99_us"], "us",
                           "%d samples" % raw["p99_samples"])
    value("trace.qps_traced", trace["qps_traced"], "1/s")
    ratio("trace.overhead_ratio", raw["qps"] - trace["qps_traced"], raw["qps"])
    out["trace.events_dropped"] = (
        trace["events_dropped"], "count",
        "of %d recorded" % trace["events_recorded"])
    return out


def format_table(layers):
    lines = ["per-layer metrics (base = numerator/denominator):"]
    for name, (v, unit, base) in layers.items():
        lines.append("  %-40s %14.6g %-12s %s" % (name, v, unit, base))
    return "\n".join(lines)


def main():
    if len(sys.argv) != 2:
        print("usage: summarize.py RESULTS_DIR", file=sys.stderr)
        return 2
    out_dir = sys.argv[1]
    with open(os.path.join(out_dir, "result.json")) as f:
        raw = json.load(f)["raw"]
    print(format_table(summarize(out_dir, raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
