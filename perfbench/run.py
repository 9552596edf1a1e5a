#!/usr/bin/env python3
"""The repository benchmark. From the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the library and the driver from source (CMake, RelWithDebInfo,
LIBERATE_OBS_LEVEL=2) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the workload, checks its
outputs and prints every metric by name with its unit. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit status is 0 only when every check
passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchmath  # noqa: E402

WORKLOADS = ("fleet-packet", "analysis-matrix", "readapt-swap")
CHILD_TIMEOUT_S = 170
# Set-ups per run, each in its own process; setup_s is their median.
SETUP_PROCESSES = 9
# The end_to_end metrics that are timings, reported at the reference host
# speed (benchmath.normalize); run.py prints them as measured too.
TIMINGS = ("setup_s", "throughput_per_s", "latency_ms_p50", "latency_ms_tail")
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "metrics.json") as f:
        meta = json.load(f)
    return bench, meta


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def child_env(out):
    """The environment for every child: temporary files stay in the build
    tree, so nothing is written outside the checkout."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(out):
    """Configure once, then build both drivers (incremental)."""
    jobs = str(min(os.cpu_count() or 1, 4))
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", str(out), "--target", "perfbench",
                 "perfbench_traced", "-j", jobs])
    env = child_env(out)
    with open(out / "build.log", "a") as logf:
        for cmd in cmds:
            try:
                done = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S,
                                      check=False)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return False
            if done.returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {out / 'build.log'})")
                return False
    return True


SOURCE_SUFFIXES = (".cc", ".h", ".txt", ".py", ".json")


def source_sha():
    """Digest of the code the drivers are built from and the metrics are
    computed by; the checkout the benchmark runs in need not be a git
    repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip()[:12] if done.returncode == 0 else "unknown"


def run_driver(binary, args):
    """Run the driver; return its last stdout line as JSON and its status."""
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, env=child_env(binary.parent),
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{binary.name} timed out after {CHILD_TIMEOUT_S} s")
        return None, 1
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"{binary.name} printed nothing (status {done.returncode})")
        return None, done.returncode or 1
    return json.loads(lines[-1]), done.returncode


def latency_tail(samples):
    """The highest of p90 and p50 that has at least 10 samples beyond it."""
    return benchmath.tail_percentile(len(samples), candidates=(90.0, 50.0))


def timings(raw, normalized):
    """Set-up times, iteration times and latency samples of a run, either as
    measured (wall clock) or at the reference host speed. The set-ups run
    in processes of their own, right after the measured one, and are scaled
    by the median of its gauge readings, which spans the whole run."""
    if not normalized:
        return raw["setup_s"], raw["iter_s"], raw["latency_ms"]
    gauge = raw["gauge_s"]
    scale = benchmath.HOST_GAUGE_REF_S / statistics.median(gauge)
    return ([s * scale for s in raw["setup_s"]],
            benchmath.normalize(raw["iter_s"], raw["iter_gauge"], gauge),
            benchmath.normalize(raw["latency_ms"], raw["latency_gauge"],
                                gauge))


def end_to_end(raw, normalized=True):
    """The end_to_end metrics from one workload's raw measurements. Timings
    are at the reference host speed unless `normalized` is false. The
    latency metrics are None when too few samples (operations that passed)
    support a percentile."""
    setups, iter_s, lat = timings(raw, normalized)
    tail = latency_tail(lat)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1.0 - benchmath.failed_ratio(raw["attempted"],
                                                 raw["failed"]),
        "throughput_per_s": benchmath.median_rate(raw["iter_ops"], iter_s),
        "latency_ms_p50":
            benchmath.blocked_percentile(lat, 50) if tail else None,
        "latency_ms_tail":
            benchmath.blocked_percentile(lat, tail) if tail else None,
        "rounds": raw["cost_count"],
    }


def add_setups(raw, binary, driver_args):
    """Measure SETUP_PROCESSES - 1 more set-ups, each the cold start of a
    fresh driver process, and fold them into the main run's raw record."""
    for _ in range(SETUP_PROCESSES - 1):
        extra, _status = run_driver(binary, driver_args + ["--setup-only", "1"])
        if extra is None:
            return False
        raw["setup_s"] += extra["setup_s"]
        raw["attempted"] += extra["attempted"]
        raw["failed"] += extra["failed"]
        raw["checks"] += [dict(c, name="set-up run: " + c["name"])
                          for c in extra["checks"] if not c["ok"]]
    return True


def per_layer(raw, spans):
    """The per_layer metrics from the traced harness's spans and counts."""
    costs = benchmath.layer_costs(spans)
    inclusive = {}
    for s in spans:
        ns, items = inclusive.get(s["name"], (0, 0))
        inclusive[s["name"]] = (ns + s["end_ns"] - s["start_ns"],
                                items + s["items"])

    def own(name, scale=1.0):
        ns, items = costs[name]
        return ns / items * scale

    def whole(name, scale=1.0):
        ns, items = inclusive[name]
        return ns / items * scale

    c = raw["counters"]
    traced_wave_ms = whole("deploy.driver_run_wave", 1e-6)
    return {
        "netsim.parse_ns_per_pkt": own("netsim.parse_packet"),
        "netsim.parse_calls_per_pkt":
            c["parse_calls_in_waves"] / c["shim_packets_in"],
        "netsim.checksum_ns_per_kb": own("netsim.internet_checksum", 1024.0),
        # The wave's own time outside the shim's sends: the event-loop
        # drains that walk every emitted packet through the path (routers,
        # normalizer, DPI middlebox) to the server. Port sends only queue.
        "netsim.path_ns_per_pkt":
            costs["deploy.driver_run_wave"][0] / c["shim_packets_out"],
        "dpi.inspect_ns_per_pkt": own("dpi.inspect"),
        "dpi.match_hit_ns": own("dpi.match_hit"),
        "dpi.match_miss_ns": own("dpi.match_miss"),
        "dpi.world_build_us": own("dpi.make_environment", 1e-3),
        "core.shim_ns_per_pkt": own("core.shim_send"),
        "core.shim_pkts_out_per_in":
            c["shim_packets_out"] / c["shim_packets_in"],
        "core.round_ms": own("core.run_isolated_round", 1e-6),
        "core.phase_ms.detection": whole("core.detect", 1e-6),
        "core.phase_ms.characterization": whole("core.characterize", 1e-6),
        "core.phase_ms.evaluation": whole("core.evaluate", 1e-6),
        "stack.reassembly_ns_per_frag": own("stack.reassembler_push"),
        "util.flow_table_touch_ns": own("util.flow_table_touch"),
        "deploy.driver_wave_ms": traced_wave_ms,
        "deploy.analysis_s": whole("deploy.liberate_analyze", 1e-9),
        "deploy.readapt_ms": whole("deploy.incremental_readapt", 1e-6),
        "deploy.readapt_rounds": c["readapt_rounds"],
        "deploy.cache_json_us": own("deploy.cache_json", 1e-3),
        "deploy.cache_nearest_us": own("deploy.cache_nearest", 1e-3),
        "fingerprint.probe_ms": whole("fingerprint.probe", 1e-6),
        "fingerprint.probe_flows": c["probe_flows"],
        "obs.prov_packet_ns_1t": own("obs.prov_packet_1t"),
        "obs.prov_packet_ns_nt": own("obs.prov_packet_nt"),
        "obs.capture_ms": own("obs.capture", 1e-6),
        "trace.overhead_ms_per_wave":
            traced_wave_ms - raw["untraced_wave_ms"],
    }


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def print_context(ctx):
    print("context  " + "  ".join(f"{k}={ctx[k]}" for k in (
        "workload", "seed", "git_sha", "source_sha", "obs_level",
        "build_type", "nproc", "workers", "seconds", "traced")))


def print_metrics(metrics, spec_list, aliases):
    units = {m["name"]: m["unit"] for m in spec_list}
    for name, value in metrics.items():
        alias = aliases.get(name, "")
        alias = f"  ({alias})" if alias else ""
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>16} {units[name]}{alias}")


def run_workload(workload, args, bench, meta, out, shas):
    traced = args.trace == 1
    binary = out / ("perfbench_traced" if traced else "perfbench")
    driver_args = ["--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
    spans_path = None
    if traced:
        (out / "spans").mkdir(exist_ok=True)
        spans_path = out / "spans" / f"{workload}-seed{args.seed}.jsonl"
        driver_args += ["--spans", str(spans_path)]
    raw, status = run_driver(binary, driver_args)
    if raw is None or (not traced and not add_setups(raw, binary,
                                                       driver_args)):
        return None
    ctx = {k: raw[k] for k in ("workload", "seed", "seconds", "obs_level",
                               "build_type", "nproc", "workers", "traced")}
    ctx.update(shas)
    print(f"== {workload} (trace {args.trace})")
    print_context(ctx)
    if traced:
        metrics = per_layer(raw, read_spans(spans_path))
        print(f"  spans written to {spans_path}")
        print_metrics(metrics, bench["per_layer"], {})
        correct = status == 0
        attempted, failed = 1, 0 if correct else 1
    else:
        metrics = end_to_end(raw)
        wmeta = meta["workloads"][workload]
        gauge = raw["gauge_s"]
        print(f"  loop={wmeta['loop']}  workers={raw['workers']}  "
              f"latency samples={len(raw['latency_ms'])}  "
              f"set-ups={len(raw['setup_s'])}  "
              f"host gauge readings={len(gauge)}, median "
              f"{statistics.median(gauge) * 1e3:.3f} ms (reference "
              f"{benchmath.HOST_GAUGE_REF_S * 1e3:g} ms)")
        if not raw["peak_rss_excludes_gauge"]:
            print("  note: the kernel refused to reset the peak resident "
                  "memory, so peak_rss_mb includes the gauge's 24 MiB")
        print("  timings at the reference host speed:")
        print_metrics(metrics, bench["end_to_end"], wmeta["metrics"])
        wall = end_to_end(raw, normalized=False)
        print("  timings as measured (wall clock, not gated):")
        print_metrics({k: wall[k] for k in TIMINGS}, bench["end_to_end"], {})
        attempted, failed = raw["attempted"], raw["failed"]
        print(f"  {'failed_ratio':<34} "
              f"{benchmath.failed_ratio(attempted, failed):>16.6g} ratio")
        n = len(raw["latency_ms"])
        tail = latency_tail(raw["latency_ms"])
        print(f"  latency_ms_tail is p{tail:g}: the highest of p90 and p50 "
              f"with >= {benchmath.MIN_SAMPLES_BEYOND} of the {n} samples "
              f"beyond it" if tail else
              f"  latency: {n} samples support no percentile")
        for name, value in raw["extra"].items():
            print(f"  {name:<34} {value:>16.6g}")
        for check in raw["checks"]:
            print(f"  check {'ok  ' if check['ok'] else 'FAIL'} "
                  f"{check['name']}: {check['detail']}")
        correct = (status == 0 and all(c["ok"] for c in raw["checks"]) and
                   None not in metrics.values())
    record = {"context": ctx, "correct": correct, "metrics": metrics}
    (out / "results").mkdir(exist_ok=True)
    with open(out / "results" / f"{workload}-trace{args.trace}.jsonl",
              "a") as f:
        f.write(json.dumps(record) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2
    bench, meta = load_spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    out = build_dir()
    if not build(out):
        return 1
    shas = {"git_sha": git_sha(), "source_sha": source_sha()}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args, bench, meta, out, shas)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    spec = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    final["metrics"] = {
        k: {"value": v, "unit": units[k.split(".", 1)[1]
                                      if len(results) > 1 else k]}
        for k, v in final["metrics"].items() if v is not None}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
