#!/usr/bin/env python3
"""Labeling benchmark: builds flowgen from source, runs one workload and
prints its metrics.

    python3 labelbench/run.py --workload engine-alu16 --seed 1 \
        --seconds 20 --trace 0
    python3 labelbench/run.py --self-check

Run from the repository root (any directory works; paths are resolved from
this file). The build lives in .bench_build/labelbench. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
(and the self-time table) with --trace 1. The exit code is non-zero when
any label is wrong or missing. labelbench/README.md defines every metric;
labelbench/PREDICTIONS.md says where each per-layer metric should move.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "labelbench")

WORKLOADS = ("engine-alu16", "fleet-alu16", "pipeline-mont16")
BINARY_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "flows_per_s": "1/s",
    "time_to_flows_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "correct_share": "share",
}

# Rows of the per-layer self-time table; they add up to trace.wall_s.
TABLE_ROWS = ("opt", "evaluator", "map", "serve", "store", "pipeline", "nn",
              "selection", "unattributed")

PER_LAYER = {
    "designs.elaborate_ms": "ms",
    "opt.passes": "count",
    "opt.warm_share": "share",
    "opt.restructure_ms": "ms",
    "opt.refactor_ms": "ms",
    "opt.refactor_z_ms": "ms",
    "opt.rewrite_ms": "ms",
    "opt.rewrite_z_ms": "ms",
    "opt.balance_ms": "ms",
    "aig.analysis_carried_ratio": "share",
    "aig.factor_memo_hits": "count",
    "map.mappings": "count",
    "map.deduped": "count",
    "map.mapping_ms": "ms",
    "evaluator.evaluations": "count",
    "flow_cache.hit_rate": "share",
    "flow_cache.steps_saved": "count",
    "flow_cache.evictions": "count",
    "flow_cache.analysis_evictions": "count",
    "flow_cache.bytes": "bytes",
    "qor_store.attach_ms": "ms",
    "qor_store.hits": "count",
    "qor_store.hit_ratio": "share",
    "qor_store.appends": "count",
    "pipeline.label_s": "s",
    "nn.train_s": "s",
    "nn.train_step_ms": "ms",
    "selection.final_probe_s": "s",
    "selection.paper_accuracy": "share",
    "loopback.fork_handshake_ms": "ms",
    "coordinator.dispatch_waste": "ratio",
    "coordinator.shard_ms_p50": "ms",
    "coordinator.shard_ms_p90": "ms",
    "coordinator.shard_samples": "count",
    "coordinator.tail_s": "s",
    "worker.busy_share": "share",
    "wire.frames": "count",
    "wire.bytes": "bytes",
    "oracle.checked": "count",
    "telemetry.trace_overhead_pct": "%",
    "trace.wall_s": "s",
    "trace.unattributed_share": "share",
}
PER_LAYER.update({f"self.{row}_s": "s" for row in TABLE_ROWS})

# flowgen_transform_ms{spec=...} -> per-layer name.
SPEC_METRICS = {
    "restructure": "opt.restructure_ms",
    "refactor": "opt.refactor_ms",
    "refactor -z": "opt.refactor_z_ms",
    "rewrite": "opt.rewrite_ms",
    "rewrite -z": "opt.rewrite_z_ms",
    "balance": "opt.balance_ms",
}


def log(*args):
    print("labelbench:", *args, file=sys.stderr, flush=True)


def checkout_env():
    """The environment for the build and the benchmark program, with temporary files
    kept inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


# --------------------------------------------------------------- build --

def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no flowgen source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=checkout_env()).returncode != 0:
                raise RuntimeError(
                    f"build failed ({' '.join(cmd)}); see {out.name}")
    return os.path.join(BUILD, "labelbench")


def run_binary(binary, args):
    """Run the benchmark program in its own process group. Whatever is left of the
    group afterwards (forked fleet workers, after a timeout or a crash) is
    killed, and the run waits until it is gone."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=checkout_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"labelbench exceeded {BINARY_TIMEOUT_S} s")
    finally:
        deadline = time.monotonic() + 10
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)  # raises once the group is empty
                time.sleep(0.05)
        except ProcessLookupError:
            pass


# ---------------------------------------------------------- provenance --

def source_digest():
    """sha256 over the files the benchmark builds from (works without git)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "labelbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, raw):
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "cmake_FLOWGEN_SPANS": raw["flowgen_spans"],
        "cmake_FLOWGEN_FAILPOINTS": raw["flowgen_failpoints"],
        "env_FLOWGEN_FAILPOINTS": os.environ.get("FLOWGEN_FAILPOINTS"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": raw["threads"],
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": raw["size"],
        "design": raw["design"],
    }


# ------------------------------------------------------- metric sources --

SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})?\s+(\S+)$")
LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """[(name, {label: value}, value)] for every sample line."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = SAMPLE.match(line)
        if m:
            labels = dict(LABEL.findall(m.group(2) or ""))
            out.append((m.group(1), labels, float(m.group(3))))
    return out


class Scrape:
    def __init__(self, text):
        self.samples = parse_prometheus(text or "")

    def sum(self, name, **want):
        return sum((v for n, labels, v in self.samples if n == name and all(
            labels.get(k) == w for k, w in want.items())), 0.0)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def quantile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(raw):
    reps = [r for r in raw["reps"] if not r["traced"]]
    attempted = raw["attempted"]
    return {
        "setup_s": median(raw["setup_s"]),
        "flows_per_s": median([r["flows"] / r["wall_s"] for r in reps]),
        "time_to_flows_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": max(raw["peak_rss_self_mb"],
                           raw["peak_rss_children_mb"]),
        "correct_share": ratio(attempted - raw["failed"], attempted),
    }


# -------------------------------------------------------------- traces --

def load_trace(path):
    """Chrome trace events; the writer appends forever, so the array may
    lack its closing bracket and end in a comma."""
    with open(path) as f:
        text = f.read().strip()
    if not text.startswith("["):
        text = "[" + text
    text = text.rstrip().rstrip(",")
    if not text.endswith("]"):
        text += "]"
    return [e for e in json.loads(text) if e.get("ph") == "X"]


# Span -> (table row, kind). "work" spans claim the instants they cover;
# "wait" spans (callers blocked on other threads) claim an instant only when
# no work span is open anywhere. The window's own span (bench/batch,
# bench/run) is a wait span whose self time is the unattributed row.
# Coordinator shard bars overlap by design and only feed coordinator.*.
SPAN_ROWS = {
    ("eval", "evaluate_flow"): ("evaluate_flow", "work"),
    ("eval", "map"): ("map", "work"),
    ("serve", "handle_eval"): ("serve", "work"),
    ("serve", "run_eval"): ("serve", "work"),
    ("pipeline", "round"): ("pipeline", "work"),
    ("pipeline", "train"): ("nn", "work"),
    ("pipeline", "label"): ("pipeline", "wait"),
    ("bench", "final_probe"): ("selection", "wait"),
    ("bench", "batch"): ("unattributed", "wait"),
    ("bench", "run"): ("unattributed", "wait"),
}


def span_row(event):
    if event["cat"] == "store":
        return ("store", "work")
    return SPAN_ROWS.get((event["cat"], event["name"]))


def self_segments(spans):
    """Split one thread's spans into (begin, end, key) pieces, each owned
    by the innermost open span (the latest to start; of two that start
    together, the first to end): span time minus its children's. Spans
    that overlap without nesting, such as bench/final_probe starting just
    before the last pipeline/round ends, are handled the same way."""
    spans = sorted(spans, key=lambda s: (s[0], -s[1]))
    points = sorted({p for s in spans for p in s[:2]})
    out, active, j = [], [], 0
    for a, b in zip(points, points[1:]):
        while j < len(spans) and spans[j][0] <= a:
            active.append(spans[j])
            j += 1
        active = [s for s in active if s[1] > a]
        if active:
            out.append((a, b, max(active, key=lambda s: (s[0], -s[1]))[2]))
    return out


def layer_table(events, window, transform_ms):
    """Attribute every instant of the window to the layers busy at that
    instant, so the rows add up to the window's wall time exactly. An
    instant is split evenly among the threads (of any process) whose
    innermost span is work; failing that among those waiting; failing that
    it is unattributed. evaluate_flow self time is split into opt (the
    flowgen_transform_ms share of it) and evaluator (prefix-cache lookups,
    snapshot inserts, bookkeeping)."""
    b, e = window
    threads = {}
    for ev in events:
        row = span_row(ev)
        if row is None:
            continue
        threads.setdefault((ev["pid"], ev["tid"]), []).append(
            (ev["ts"], ev["ts"] + ev["dur"], row))
    edges = []
    ef_thread_us = 0.0
    for spans in threads.values():
        for s0, s1, (row, kind) in self_segments(spans):
            s0, s1 = max(s0, b), min(s1, e)
            if s1 <= s0:
                continue
            if row == "evaluate_flow":
                ef_thread_us += s1 - s0
            edges.append((s0, 1, row, kind))
            edges.append((s1, -1, row, kind))
    edges.sort(key=lambda x: x[0])
    acc = {row: 0.0 for row in TABLE_ROWS + ("evaluate_flow",)}
    open_spans = {"work": {}, "wait": {}}
    t = b
    i = 0
    while True:
        nxt = edges[i][0] if i < len(edges) else e
        if nxt > t:
            dt = nxt - t
            for kind in ("work", "wait"):
                live = {r: n for r, n in open_spans[kind].items() if n > 0}
                total = sum(live.values())
                if total:
                    for r, n in live.items():
                        acc[r] += dt * n / total
                    break
            else:
                acc["unattributed"] += dt
            t = nxt
        if i >= len(edges):
            break
        _, delta, row, kind = edges[i]
        open_spans[kind][row] = open_spans[kind].get(row, 0) + delta
        i += 1
    opt_share = min(1.0, ratio(transform_ms * 1e3, ef_thread_us))
    ef = acc.pop("evaluate_flow")
    acc["opt"] += ef * opt_share
    acc["evaluator"] += ef * (1.0 - opt_share)
    return {row: acc[row] * 1e-6 for row in TABLE_ROWS}


def coordinator_tail_s(events, window_end_us):
    """From the first worker going idle for good to the end of the batch."""
    last = {}
    for ev in events:
        if ev["cat"] == "coordinator" and ev["name"] == "shard":
            worker = ev.get("args", {}).get("worker", "?")
            last[worker] = max(last.get(worker, 0), ev["ts"] + ev["dur"])
    if not last:
        return 0.0
    return max(0.0, window_end_us - min(last.values())) * 1e-6


def per_layer(raw):
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    rep = traced[0]
    m = Scrape(rep.get("metrics_text", ""))
    sc = rep["scalars"]
    window = (rep["window_begin_us"], rep["window_end_us"])
    wall_s = (window[1] - window[0]) * 1e-6
    events = load_trace(rep["trace_file"])

    out = {"designs.elaborate_ms": median(raw["elaborate_ms"])}
    transform_ms = m.sum("flowgen_transform_ms_sum")
    passes = m.sum("flowgen_transform_ms_count")
    out["opt.passes"] = m.sum("flowgen_transforms_applied_total")
    out["opt.warm_share"] = ratio(
        m.sum("flowgen_transform_ms_count", analysis="warm"), passes)
    for spec, name in SPEC_METRICS.items():
        out[name] = m.sum("flowgen_transform_ms_sum", spec=spec)
    kinds = ("windows", "resub_plans", "factor_plans", "cut_nodes")
    carried = sum(m.sum(f"flowgen_analysis_{k}_carried_total") for k in kinds)
    computed = sum(m.sum(f"flowgen_analysis_{k}_computed_total")
                   for k in kinds)
    out["aig.analysis_carried_ratio"] = ratio(carried, carried + computed)
    out["aig.factor_memo_hits"] = m.sum(
        "flowgen_analysis_factor_memo_hits_total")
    out["map.mappings"] = m.sum("flowgen_mappings_total")
    out["map.deduped"] = m.sum("flowgen_mappings_deduped_total")
    out["map.mapping_ms"] = m.sum("flowgen_mapping_ms_sum")
    out["evaluator.evaluations"] = m.sum("flowgen_evaluations_total")
    out["flow_cache.hit_rate"] = ratio(
        m.sum("flowgen_flow_cache_hits_total"),
        m.sum("flowgen_flow_cache_lookups_total"))
    out["flow_cache.steps_saved"] = m.sum(
        "flowgen_flow_cache_steps_saved_total")
    out["flow_cache.evictions"] = m.sum("flowgen_flow_cache_evictions_total")
    out["flow_cache.analysis_evictions"] = m.sum(
        "flowgen_flow_cache_analysis_evictions_total")
    out["flow_cache.bytes"] = m.sum("flowgen_flow_cache_bytes")
    out["qor_store.attach_ms"] = median(raw["attach_ms"])
    out["qor_store.hits"] = m.sum("flowgen_qor_store_hits_total")
    out["qor_store.hit_ratio"] = ratio(
        out["qor_store.hits"], m.sum("flowgen_qor_store_lookups_total"))
    out["qor_store.appends"] = m.sum("flowgen_qor_store_appends_total")

    out["pipeline.label_s"] = sc.get("label_s", 0.0)
    out["nn.train_s"] = sc.get("train_s", 0.0)
    out["nn.train_step_ms"] = 1e3 * ratio(sc.get("train_s", 0.0),
                                          sc.get("train_steps", 0.0))
    out["selection.final_probe_s"] = sc.get("final_probe_s", 0.0)
    out["selection.paper_accuracy"] = sc.get("paper_accuracy", 0.0)

    out["loopback.fork_handshake_ms"] = median(raw["fork_handshake_ms"])
    workers = sc.get("workers", 0.0)
    out["coordinator.dispatch_waste"] = (
        ratio(sc["flows_dispatched"], rep["flows"]) if workers else 0.0)
    out["coordinator.shard_ms_p50"] = quantile(rep["shard_ms"], 0.5)
    out["coordinator.shard_ms_p90"] = quantile(rep["shard_ms"], 0.9)
    out["coordinator.shard_samples"] = float(len(rep["shard_ms"]))
    out["coordinator.tail_s"] = coordinator_tail_s(events, window[1])
    busy_us = sum(
        max(0, min(ev["ts"] + ev["dur"], window[1]) - max(ev["ts"], window[0]))
        for ev in events if ev["cat"] == "serve")
    out["worker.busy_share"] = ratio(busy_us * 1e-6, workers * wall_s)
    out["wire.frames"] = (m.sum("flowgen_frames_rx_total")
                          + m.sum("flowgen_frames_tx_total"))
    out["wire.bytes"] = (m.sum("flowgen_frame_bytes_rx_total")
                         + m.sum("flowgen_frame_bytes_tx_total"))
    out["oracle.checked"] = float(raw["oracle_checked"])

    plain = median([r["wall_s"] for r in untraced])
    out["telemetry.trace_overhead_pct"] = 100.0 * (
        ratio(median([r["wall_s"] for r in traced]), plain) - 1.0)
    table = layer_table(events, window, transform_ms)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_share"] = ratio(table["unattributed"], wall_s)
    for row, seconds in table.items():
        out[f"self.{row}_s"] = seconds
    return out


# ----------------------------------------------------------------- run --

def run_workload(args):
    """Build, run one workload, print the report; returns the exit code."""
    binary = build()
    # The previous run's stores and traces go; this run's stay to inspect.
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--raw", raw_path, "--size", args.size]
    if args.plant_wrong_label:
        cmd.append("--plant-wrong-label")
    code = run_binary(binary, cmd)
    if code != 0 or not os.path.exists(raw_path):
        raise RuntimeError(f"labelbench exited with code {code}")
    with open(raw_path) as f:
        raw = json.load(f)
    errors = [r["error"] for r in raw["reps"] if r["error"]]
    for error in errors:
        log("batch failed: " + error)
    if args.trace and not any(r["traced"] for r in raw["reps"]):
        raise RuntimeError("no traced repetition completed")

    prov = provenance(args, raw)
    if args.trace:
        metrics = per_layer(raw)
        units = PER_LAYER
    else:
        metrics = end_to_end(raw)
        units = END_TO_END
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }

    print("labelbench provenance " + json.dumps(prov, sort_keys=True))
    reps = raw["reps"]
    print(f"labelbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"oracle_checked={raw['oracle_checked']} "
          f"oracle_mismatches={raw['oracle_mismatches']}")
    for detail in raw["oracle_details"][:20]:
        print("labelbench label error: " + detail)
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:16.6f} {unit}")
    if args.trace:
        wall = metrics["trace.wall_s"]
        print(f"  self-time table (traced rep, wall {wall:.3f} s)")
        for row in TABLE_ROWS:
            s = metrics[f"self.{row}_s"]
            print(f"    {row:14s} {s:10.4f} s  {100 * ratio(s, wall):6.2f}%")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def self_check(args):
    """Tiny sizes: every workload runs traced and untraced, every metric
    BENCHMARK.json names must come out with its unit, the table must add
    up, and a wrong label planted in the comparison copy must be caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def invoke(workload, trace, plant=False):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
        if plant:
            cmd.append("--plant-wrong-label")
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        try:
            return p.returncode, json.loads(lines[-1])
        except (IndexError, ValueError):
            return p.returncode, None

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            code, result = invoke(workload, trace)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: labels failed")
            got = result["metrics"]
            differ = sorted(set(got) ^ set(want[trace]))
            if differ:
                problems.append(f"{tag}: metric names differ from "
                                f"BENCHMARK.json: {differ}")
            for name, unit in want[trace].items():
                if name in got and got[name]["unit"] != unit:
                    problems.append(f"{tag}: {name} unit {got[name]['unit']}")
            if trace:
                wall = got["trace.wall_s"]["value"]
                rows = sum(got[f"self.{r}_s"]["value"] for r in TABLE_ROWS)
                if wall <= 0 or abs(rows - wall) > 1e-6 * max(1.0, wall):
                    problems.append(f"{tag}: table rows {rows} != wall {wall}")
            print(f"self-check: {tag}: "
                  + ("; ".join(problems[before:]) or "ok"))
    code, result = invoke(WORKLOADS[0], 0, plant=True)
    if code == 0 or result is None or result["correct"] or not result["failed"]:
        problems.append("planted wrong label was not caught")
    else:
        print(f"self-check: planted wrong label caught (exit {code}, "
              f"failed={result['failed']})")
    for p in problems:
        print("self-check FAILED: " + p)
    return 1 if problems else 0


def main():
    # SIGTERM unwinds like an exception, so run_binary's cleanup still
    # kills and waits for the benchmark program's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--plant-wrong-label", action="store_true",
                    help="corrupt one label in the comparison copy "
                         "(self-check of the oracle)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            build()
            return self_check(args)
        if args.workload is None:
            ap.error("--workload is required")
        return run_workload(args)
    except RuntimeError as e:
        log(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
