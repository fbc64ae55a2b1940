#!/usr/bin/env python3
"""TRACER replay benchmark.

    python3 perfbench/run.py --workload campaign|stream|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced + traced

Builds the repository's libraries and the replay_bench binary (perfbench/) in
Release into .bench_build/, runs one workload with inputs made from --seed,
checks the program's outputs, and prints the metrics named in
BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run splits --seconds between
an untraced and a traced phase (set-up runs untraced before both), prints
both sets of end-to-end figures side by side, and reports the per-layer
metrics of the traced phase with a closure table and the span totals.

Workloads (see the comments at the top of campaign.cpp and stream.cpp):
  campaign  the §VI grid, 125 modes x 10 loads, CampaignRunner on a pool
  stream    a long web-server trace streamed from .replay2 into a
            cache-fronted, spin-down-managed HDD array, one thread
  fleet     the same grid sharded by CampaignCoordinator over in-process
            links to CampaignWorkerService threads

Each run works in a private directory under .bench_run/ that is removed at
the end; traced runs leave their spans, in Chrome trace format, in
.bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

WORKLOADS = ("campaign", "stream", "fleet")
DEFAULT_SEED = 1
# Record digests for DEFAULT_SEED (FNV-1a over every record, %.17g fields,
# test_id and timestamp left out). Any change to a simulated result moves
# them; other seeds are checked for run-to-run determinism only.
PINNED_DIGESTS = {
    "campaign": "854f9465f7372c4d",
    "stream": "8cbdc7ea1c907c49",
    "fleet": "0f44c29569255b9b",
}
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_tree_ok():
    return all(os.path.isfile(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")))


def build():
    """Configure (once) and build replay_bench; returns its path."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "replay_bench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "replay_bench")


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the program's sources, a revision stand-in that also
    works in a checkout without git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, workload, seed, seconds, trace, threads,
               expect_digest, inject_fail):
    work_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (workload, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--threads", str(threads),
           "--trace", "1" if trace else "0", "--work-dir", work_dir,
           "--span-file", os.path.join(out_dir, "spans-%s-seed%d.json" % (workload, seed)),
           "--inject-fail", str(inject_fail)]
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    env = dict(os.environ, TMPDIR=work_dir)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("%s run exceeded %d s" % (workload, CHILD_TIMEOUT_S))
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail("%s run exited with %d" % (workload, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def measured_units(result, phase):
    """The phase's units as dicts of tests, wall_s, cpu_s, packages, sim_s,
    peak_rss_mb and test_ms (host ms per test, in test order): one whole
    campaign for campaign and fleet, one replay (one test) for stream."""
    keys = ("wall_s", "cpu_s", "packages", "sim_s", "peak_rss_mb")
    if result["workload"] != "stream":
        return [{k: u[k] for k in keys + ("tests", "test_ms")} for u in phase["units"]]
    return [dict({k: u[k] for k in keys}, tests=1, test_ms=[u["wall_s"] * 1e3])
            for u in phase["units"]]


def per_test_times(units):
    """(p50, tail percentile, tail) of per-test host time. Every unit runs
    the same tests (the 1250 grid tests, or the one stream replay), so each
    test's best time over the phase is its cost with the least
    interference from the rest of the host; p50 and tail are over the
    tests' best times."""
    best = [min(times) for times in zip(*(u["test_ms"] for u in units))]
    p, tail = stats.tail(best)
    return stats.median(best), p, tail


def end_to_end(result, phase):
    """The user-visible metrics of one measured phase. Every unit repeats
    identical deterministic work, so the spread between units is the host's
    interference (on a shared host, up to ~1.5x for seconds to minutes) and
    the best unit is the estimate (min-of-N): rates are the best unit's,
    CPU per test the lowest, per-test times as per_test_times() says.
    Set-up is the median of its repetitions and peak RSS the median of the
    units' peaks."""
    units = measured_units(result, phase)
    best = lambda f: max(f(u) for u in units)  # noqa: E731
    p50, tail_p, tail = per_test_times(units)
    return {
        "setup_s": metric(stats.median(result["setup_s"]), "s"),
        "tests_per_s": metric(best(lambda u: u["tests"] / u["wall_s"]), "tests/s"),
        "test_p50_ms": metric(p50, "ms"),
        "test_tail_ms": metric(tail, "ms"),
        "packages_per_s": metric(best(lambda u: u["packages"] / u["wall_s"]), "1/s"),
        "sim_s_per_s": metric(best(lambda u: u["sim_s"] / u["wall_s"]), "s/s"),
        "cpu_ms_per_test": metric(min(u["cpu_s"] / u["tests"] for u in units) * 1e3, "ms"),
        "peak_rss_mb": metric(stats.median([u["peak_rss_mb"] for u in units]), "MB"),
    }, {"tests": len(units[0]["test_ms"]), "tail_percentile": tail_p, "units": len(units),
        "unit_spread": stats.spread([u["wall_s"] for u in units]) if len(units) > 1 else 0.0}


def per_layer(result, plain, traced):
    """Per-layer metrics of the traced phase, plus the closure rows that
    set them beside the traced wall time."""
    workload = result["workload"]
    units = traced["units"]
    u0 = units[0]
    med = lambda f: stats.median([f(u) for u in units])  # noqa: E731
    grid = workload in ("campaign", "fleet")
    stream = workload == "stream"
    spans = traced.get("spans", {})
    m = {}

    m["workload.generate_s"] = metric(stats.median(result["setup_generate_s"]) if grid else 0.0, "s")
    m["workload.requests_generated"] = metric(result["requests_generated"] if grid else 0, "count")
    m["trace.convert_s"] = metric(stats.median(result["setup_convert_s"]) if stream else 0.0, "s")
    decode_s = stats.median(traced["decode_s"]) if stream else 0.0
    m["trace.decode_s"] = metric(decode_s, "s")
    m["trace.decode_mb_per_s"] = metric(result["trace_file_mb"] / decode_s if stream else 0.0, "MB/s")
    m["filter.apply_s"] = metric(med(lambda u: u["filter_s"]) if grid else 0.0, "s")
    m["filter.selected_frac"] = metric(u0["bunches"] / result["peak_bunches"] if grid else 0.0, "frac")
    m["filter.load_err_pct"] = metric(u0["load_err_pct"] if grid else 0.0, "%")
    if stream:
        m["replay.busy_s"] = metric(med(lambda u: u["replay_call_s"]), "s")
    else:
        m["replay.busy_s"] = metric(med(lambda u: u["replay_s"]), "s")
    m["replay.packages"] = metric(u0["packages"], "count")
    m["replay.bunches"] = metric(u0["bunches"], "count")
    m["replay.late_schedules"] = metric(sum(u["late"] for u in units), "count")
    m["sim.events"] = metric(u0["events"], "count")
    busy_key = "replay_call_s" if stream else "replay_s"
    m["sim.ns_per_event"] = metric(med(lambda u: u[busy_key] / u["events"] * 1e9), "ns")
    if stream:
        lookups = u0["cache_hits"] + u0["tier_hits"] + u0["cache_misses"]
        m["storage.cache_hit_ratio"] = metric((u0["cache_hits"] + u0["tier_hits"]) / lookups, "frac")
        m["storage.tier_hits"] = metric(u0["tier_hits"], "count")
        m["storage.spin_ups"] = metric(u0["spin_ups"], "count")
    else:
        m["storage.cache_hit_ratio"] = metric(0.0, "frac")
        m["storage.tier_hits"] = metric(0, "count")
        m["storage.spin_ups"] = metric(0, "count")
    m["power.samples"] = metric(u0["power_samples"], "count")
    m["db.measure_s"] = metric(med(lambda u: u["measure_s"]) if grid else 0.0, "s")
    m["db.journal_bytes_per_test"] = metric(med(lambda u: u["journal_bytes"] / u["tests"]) if grid else 0.0, "B")
    campaign = workload == "campaign"
    fleet = workload == "fleet"
    m["campaign.pool_busy_frac"] = metric(
        med(lambda u: u["test_busy_s"] / (result["threads"] * u["wall_s"])) if campaign else 0.0, "frac")
    m["campaign.checkpoint_writes"] = metric(u0["checkpoint_writes"] if campaign else 0, "count")
    m["fleet.worker_busy_frac"] = metric(
        med(lambda u: u["test_busy_s"] / (result["workers"] * u["wall_s"])) if fleet else 0.0, "frac")
    m["fleet.coord_cpu_s"] = metric(med(lambda u: u["coord_cpu_s"]) if fleet else 0.0, "s")
    m["fleet.leases_granted"] = metric(med(lambda u: u["leases_granted"]) if fleet else 0, "count")
    m["fleet.records_merged"] = metric(u0["records_merged"] if fleet else 0, "count")
    m["net.frames_per_test"] = metric(med(lambda u: u["frames_sent"] / u["tests"]) if fleet else 0.0, "count")
    # Best unit against best unit, as the end-to-end rates are taken: the
    # host's drift between the two phases would swamp a ratio of medians.
    m["tracing.overhead_frac"] = metric(
        min(u["wall_s"] for u in units) / min(u["wall_s"] for u in plain["units"]) - 1.0,
        "frac")

    # Closure: where the traced phase's thread time went.
    notes = []
    if grid:
        threads = result["workers"]
        available = threads * sum(u["wall_s"] for u in units)
        parts = [(k, sum(u[k + "_s"] for u in units)) for k in ("generate", "filter", "replay", "measure")]
        busy = sum(u["test_busy_s"] for u in units)
        rows = [("host.phase.%s" % k, v) for k, v in parts]
        rows.append(("run_test outside phase timers", busy - sum(v for _, v in parts)))
        unattributed = available - busy
        basis = "%d %s threads x the traced units' wall time" % (
            threads, "pool" if campaign else "worker")
        if fleet:
            wall = sum(u["wall_s"] for u in units)
            coord = sum(u["coord_cpu_s"] for u in units)
            notes.append("coordinator thread: %.4f s CPU in coordinator.run of %.4f s wall (%.1f%%)"
                         % (coord, wall, 100 * coord / wall))
    else:
        available = traced["wall_s"]
        span = lambda name: spans.get(name, {}).get("total_s", 0.0)  # noqa: E731
        decode_est = decode_s * len(units)
        rows = [
            ("trace.open_source", span("trace.open_source")),
            ("stream.build_target: engine, array, cache, spin-down", span("stream.build_target")),
            ("replay.run: decode (est. from the decode-only pass)", decode_est),
            ("replay.run: simulate, cache, power (rest)", span("replay.run") - decode_est),
        ]
        unattributed = available - sum(v for _, v in rows)
        basis = "1 replay thread x traced wall"
    m["closure.unattributed_frac"] = metric(unattributed / available, "frac")
    return m, {"basis": basis, "available_s": available, "rows": rows,
               "unattributed_s": unattributed, "notes": notes}


def fingerprint(result, seed, threads, load_start, load_end, binary_info):
    build_type = binary_info["build_type"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "compiler": binary_info["compiler"],
        "build_type": build_type,
        "build_flag": "" if build_type == "Release" else "NOT A RELEASE BUILD",
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
        "threads": threads,
        "workload_threads": result["threads"] if result["workload"] != "fleet"
        else "1 coordinator + %d workers" % result["workers"],
    }


def print_table(title, columns, rows):
    print(title)
    widths = [max(len(str(c)), *(len(str(r[i])) for r in rows)) for i, c in enumerate(columns)]
    print("  " + "  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for r in rows:
        print("  " + "  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run_workload(binary, workload, seed, seconds, trace, expect_digest, inject_fail):
    threads = len(os.sched_getaffinity(0))
    if expect_digest is None and seed == DEFAULT_SEED:
        expect_digest = PINNED_DIGESTS[workload]
    load_start = os.getloadavg()[0]
    out = run_binary(binary, workload, seed, seconds, trace, threads,
                     expect_digest, inject_fail)
    load_end = os.getloadavg()[0]
    result = out["result"]
    print("fingerprint: " + json.dumps(fingerprint(result, seed, threads, load_start, load_end, out)))

    phases = result["phases"]
    plain = phases[0]
    e2e, info = end_to_end(result, plain)
    attempted, failed = result["attempted"], result["failed"]
    tail_p = info["tail_percentile"]
    print("workload %s: %d units (unit time spread %.3f), per-test times over %d tests, "
          "tail = %s; digest %s%s" % (
              workload, info["units"], info["unit_spread"], info["tests"],
              "p%d" % tail_p if tail_p else "max", result["digest"],
              " (pinned)" if expect_digest else ""))
    seen = {}
    for check in result["failed_checks"]:
        key = (check["name"], check["detail"])
        seen[key] = seen.get(key, 0) + 1
    for (name, detail), count in seen.items():
        print("FAILED CHECK %s (%d unit(s)): %s" % (name, count, detail))
    print("failed_frac = %d / %d = %.6g" % (failed, attempted, failed / attempted))

    if not trace:
        print_table("end-to-end (%s)" % workload, ["metric", "value", "unit"],
                    [(k, fmt(v["value"]), v["unit"]) for k, v in e2e.items()])
        layers = None
    else:
        traced = phases[1]
        e2e_traced, _ = end_to_end(result, traced)
        print_table("end-to-end (%s), untraced vs traced" % workload,
                    ["metric", "untraced", "traced", "unit"],
                    [(k, fmt(v["value"]), fmt(e2e_traced[k]["value"]), v["unit"]) for k, v in e2e.items()])
        layers, closure = per_layer(result, plain, traced)
        print_table("per-layer (%s, traced phase)" % workload, ["metric", "value", "unit"],
                    [(k, fmt(v["value"]), v["unit"]) for k, v in layers.items()])
        avail = closure["available_s"]
        rows = [(name, "%.4f" % s, "%.1f%%" % (100 * s / avail)) for name, s in closure["rows"]]
        rows.append(("UNATTRIBUTED remainder", "%.4f" % closure["unattributed_s"],
                     "%.1f%%" % (100 * closure["unattributed_s"] / avail)))
        print_table("closure (%s): %.4f s = %s" % (workload, avail, closure["basis"]),
                    ["part", "seconds", "share"], rows)
        for note in closure["notes"]:
            print("  " + note)
        print_table("spans (%s, benchmark and program; self = total - direct children)" % workload,
                    ["span", "count", "total_s", "self_s"],
                    [(name, v["count"], "%.4f" % v["total_s"], "%.4f" % v["self_s"])
                     for name, v in sorted(traced["spans"].items())])
    correct = not result["failed_checks"] and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed}, e2e, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="check records against this digest instead of the pinned one")
    parser.add_argument("--inject-fail", type=int, default=0,
                        help="make the first N tests of every unit fail (self-check)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not source_tree_ok():
        fail("no TRACER source tree at %s (need CMakeLists.txt and src/)" % ROOT)

    started = time.monotonic()
    binary = build()
    print("build: %.1f s" % (time.monotonic() - started))
    if args.workload:
        summary, e2e, layers = run_workload(
            binary, args.workload, args.seed, args.seconds, bool(args.trace),
            args.expect_digest, args.inject_fail)
        summary["metrics"] = layers if args.trace else e2e
    else:
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one, e2e, layers = run_workload(
                binary, workload, args.seed, args.seconds, True,
                args.expect_digest, args.inject_fail)
            summary["correct"] = summary["correct"] and one["correct"]
            summary["attempted"] += one["attempted"]
            summary["failed"] += one["failed"]
            for name, value in {**e2e, **layers}.items():
                summary["metrics"][workload + "/" + name] = value
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
