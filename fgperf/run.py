#!/usr/bin/env python3
"""fgperf: the FireGuard simulator's benchmark.

Run from the repository root:

    python3 fgperf/run.py --workload hotloop_asan --seed 1 --seconds 15 --trace 0

It builds fgperf_driver from the sources in the checkout (first run only,
into .bench_build/fgperf), runs one workload for --seconds, checks its
outputs, prints one line per metric with its unit and sample count, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones. The exit code is non-zero on any correctness mismatch. See
fgperf/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("hotloop_asan", "hotloop_memstall", "campaign_sweep", "service_mix")
HOTLOOPS = WORKLOADS[:2]
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ----------------------------------------------------------------------

def build(root):
    """Configure (once) and build fgperf_driver; returns its path or None."""
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "fgperf"
    driver = build_dir / "fgperf_driver"
    cmds = []
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(root / "fgperf"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *gen])
    cmds.append(["cmake", "--build", str(build_dir), "--target", "fgperf_driver",
                 "-j", "4"])
    # The compiler's temporary files (LTO partitions) stay in the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in cmds:
        try:
            rc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"fgperf: {cmd[0]} failed: {e}")
            return None
        if rc != 0:
            log(f"fgperf: build step failed ({rc}): {' '.join(cmd)}")
            return None
    return driver if driver.exists() else None


def stop_group(pgid):
    """SIGKILL whatever is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


# --- host fingerprint --------------------------------------------------------------

def fingerprint(root, build_info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    # The source identity works without git: a hash of every file the
    # driver is built from.
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "fgperf"):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": "gcc " + build_info.get("compiler", "?"),
        "build_type": build_info.get("build_type", "?"),
        "lto": build_info.get("lto", "?"),
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


# --- metrics ---------------------------------------------------------------------------
# Each metric is (value, unit, n, how). `how` names the estimator.
#
# Host times are scaled by two probes that fgperf/driver.cc reads next to
# each timed unit: HostProbe, a fixed CPU kernel on the timing thread, and
# DiskProbe, one fixed fsync'd write in the work directory. No simulator or
# store change can move either. A unit's time t is divided by
#
#     w_cpu * (cpu / PROBE_REF_S) ** gamma + w_disk * disk / DISK_REF_S
#         + (1 - w_cpu - w_disk)
#
# which expresses it for a host on which the probes take PROBE_REF_S and
# DISK_REF_S (a quiet 4-core Xeon VM). The weights say how much of the unit's
# time moves with each probe; the rest is fixed delay (the serve daemon polls
# its workers every 10 ms).
#
# The hot loops run on the timing thread and are CPU-bound: w_cpu = 1. When
# the host slows, the simulator slows more than the probe does: over 1 s
# blocks of a 75 s hotloop_asan trace loop and a 45 s hotloop_memstall one,
# the slope of log(trace time) on log(probe time) was 1.48 and 1.31. Hence
# gamma = 1.4 for them.
#
# For the store-bound units the weights come from a least-squares fit of
# each run's median unit time on its median probe readings,
# t = a * cpu + b * disk + c, over the development host's tuning and
# steadiness runs (26 to 34 runs of 20 s per unit, some of them in slow
# stretches of the host): w_cpu = a * PROBE_REF_S / t_ref and
# w_disk = b * DISK_REF_S / t_ref, with t_ref the fit's value at the
# reference probes. A fit over single units instead gave weights about half
# as large, as noise in one probe reading dilutes the slope, and left a
# slow stretch of the host visible in the scaled figures. A campaign's
# set-up creates its journal file, which waits on the file system: its fit
# gave w_cpu = -0.26, taken as 0.
PROBE_REF_S = 0.004
DISK_REF_S = 0.0005
SCALING = {  # kind: (w_cpu, w_disk, gamma)
    "hot": (1.0, 0.0, 1.4),
    "campaign": (0.69, 0.05, 1.0),
    "campaign_setup": (0.0, 0.71, 1.0),
    "session": (0.77, 0.17, 1.0),
    "serve_setup": (0.23, 0.06, 1.0),
}


def scaled(times, cpu, disk=None, kind="hot"):
    w_cpu, w_disk, gamma = SCALING[kind]
    disk = disk or [DISK_REF_S] * len(cpu)
    return [t / (w_cpu * (c / PROBE_REF_S) ** gamma + w_disk * d / DISK_REF_S
                 + 1 - w_cpu - w_disk)
            for t, c, d in zip(times, cpu, disk)]


def per_unit(xs, units):
    """Spread one probe reading per unit over the unit's samples (a campaign
    times several set-ups)."""
    k = len(xs) // len(units)
    return [units[i // k] for i in range(len(xs))]


def hot_rate(ser, prefix="", raw=False):
    """Committed simulated instructions per host second over the run's traces:
    each trace's scaled median run time or, raw, its best-of-k."""
    insts = ser["point_insts"]
    per_trace = []
    for i in range(len(insts)):
        times = ser[f"{prefix}point_s.{i}"]
        per_trace.append(stats.best(times) if raw else
                         stats.median(scaled(times, ser[f"{prefix}probe_s.{i}"])))
    return (sum(insts) / sum(t.value for t in per_trace),
            min(t.n for t in per_trace))


def hot_layer_s(ser, key):
    """A per-trace layer time of the traced rounds: the sum over traces of
    each trace's scaled median."""
    meds = [stats.median(scaled(ser[f"{key}.{i}"], ser[f"traced_probe_s.{i}"]))
            for i in range(len(ser["point_insts"]))]
    return sum(m.value for m in meds), min(m.n for m in meds)


def hot_rounds(ser, key, prefix=""):
    """Per round, every trace's scaled `key` time summed."""
    npts = len(ser["point_insts"])
    per_trace = [scaled(ser[f"{prefix}{key}.{i}"], ser[f"{prefix}probe_s.{i}"])
                 for i in range(npts)]
    return [sum(r) for r in zip(*per_trace)]


def campaign_times(ser, prefix=""):
    return scaled(ser[f"{prefix}campaign_s"], ser[f"{prefix}probe_s"],
                  ser[f"{prefix}disk_s"], "campaign")


def campaign_setups(ser):
    setup = ser["setup_s"]
    return scaled(setup, per_unit(setup, ser["probe_s"]),
                  per_unit(setup, ser["disk_s"]), "campaign_setup")


def session_rates(ser, cnt):
    """Answers per second of each daemon session, scaled."""
    times = scaled(ser["session_s"], ser["probe_s"], ser["disk_s"], "session")
    return [cnt["serve.session_answers"] / t for t in times]


def overhead(untraced, traced):
    """Tracing overhead: median over adjacent (untraced, traced) pairs of
    traced / untraced time - 1."""
    return stats.median([t / u - 1 for u, t in zip(untraced, traced)])


def pct(xs, p, scale=1.0):
    try:
        s = stats.percentile(xs, p)
        return s.value * scale, s.n
    except stats.TooFewSamples:
        return None, len(xs)


def end_to_end(w, d):
    ser, cnt = d["series"], d["counters"]
    m = {}
    if w in HOTLOOPS:
        setup, how = stats.median(hot_rounds(ser, "setup_s")), "median of round set-ups"
    elif w == "campaign_sweep":
        setup, how = stats.median(campaign_setups(ser)), "median of runner set-ups"
    else:
        setup = stats.median(scaled(ser["setup_s"], ser["probe_s"], ser["disk_s"],
                                    "serve_setup"))
        how = "median of daemon start-ups"
    m["setup_s"] = (setup.value, "s", setup.n, how + ", scaled")
    m["peak_rss_mb"] = (d["peak_rss_mb"], "MB", 1, "max RSS, driver and children")
    sim = d["sim"]
    m["slowdown"] = (sim["fireguard_cycles"] / sim["baseline_cycles"], "x", 1,
                     "simulated: sum FireGuard cycles / sum baseline cycles")
    extra = {}
    if w in HOTLOOPS:
        rate, n = hot_rate(ser)
        m["throughput_per_s"] = (rate, "1/s", n, "sim insts/s, median per trace, scaled")
        rate, n = hot_rate(ser, raw=True)
        extra["sim_insts_per_s"] = (rate, "1/s", n, "unscaled, best-of-k per trace")
    elif w == "campaign_sweep":
        points = cnt["campaign.points"]
        s = stats.median(campaign_times(ser))
        m["throughput_per_s"] = (points / s.value, "1/s", s.n,
                                 "points/s, median campaign, scaled")
        raw = stats.best(ser["campaign_s"])
        extra["points_per_s"] = (points / raw.value, "1/s", raw.n,
                                 "unscaled, best-of-k campaigns")
    else:
        s = stats.median(session_rates(ser, cnt))
        m["throughput_per_s"] = (s.value, "1/s", s.n,
                                 "answers/s, median session, scaled")
        raw = stats.best(ser["session_s"])
        extra["points_per_s"] = (cnt["serve.session_answers"] / raw.value, "1/s",
                                 raw.n, "unscaled, best-of-k sessions")
        for p in (50, 95):
            v, n = pct(ser["answer_ms"], p)
            extra[f"answer_ms_p{p}"] = (v, "ms", n, f"p{p} submit -> answer")
    for p in (50, 90):
        v, n = pct(sim["latency_ns"], p)
        extra[f"detect_latency_ns_p{p}"] = (v, "ns", n, f"simulated p{p}")
    return m, extra


def self_times(spans):
    """Per span name: count, total seconds, self seconds (duration minus the
    part its child spans cover)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[int(s["parent"])] += s["t1"] - s["t0"]
    out = {}
    for i, s in enumerate(spans):
        c, tot, slf = out.get(s["name"], (0, 0.0, 0.0))
        dur = s["t1"] - s["t0"]
        out[s["name"]] = (c + 1, tot + dur, slf + dur - child[i])
    return out


def per_layer(w, d, units):
    """Every per-layer metric named in `units` (name -> unit, from
    BENCHMARK.json); a layer the workload does not exercise reads 0 (n=0)."""
    m = {name: (0.0, unit, 0, "not exercised") for name, unit in units.items()}
    ser, cnt = d["series"], d["counters"]

    def put(name, value, n, how):
        m[name] = (value, units[name], n, how)

    for name in ("boom.baseline_cycles", "boom.commit_stall_fireguard",
                 "mem.tlb_accesses", "mem.tlb_misses", "mem.ptw_walks",
                 "mem.dram_requests", "core.filter_valid", "core.arbiter_blocked",
                 "core.mapper_conflicts", "core.cdc_pushes", "core.cdc_rejects",
                 "ucore.busy_cycles", "ucore.stall_cycles", "ucore.packets_popped",
                 "soc.cycles_stepped", "soc.cycles_skipped", "soc.slow_ticks_run",
                 "soc.slow_ticks_skipped", "trace.insts", "store.publishes",
                 "serve.store_hits", "serve.dedupe_hits", "serve.executed"):
        if name in cnt:
            put(name, cnt[name], 1, "count over the run")

    if w in HOTLOOPS:
        gen, n = hot_layer_s(ser, "trace.gen_s")
        base, _ = hot_layer_s(ser, "boom.baseline_s")
        fg, _ = hot_layer_s(ser, "traced_point_s")
        how = "sum over traces of the median, scaled"
        put("trace.gen_s", gen, n, how)
        put("boom.baseline_s", base, n, how)
        put("soc.fireguard_s", fg, n, how)
        put("boom_mem.self_s", base - gen, n, "baseline - trace generation")
        put("soc.monitor_s", fg - base, n, "FireGuard run - baseline run")
        put("trace.share", gen / fg, n, "share of the FireGuard run")
        put("boom_mem.share", (base - gen) / fg, n, "share of the FireGuard run")
        put("soc.monitor_share", (fg - base) / fg, n, "share of the FireGuard run")
        s = stats.median(hot_rounds(ser, "setup_s", "traced_"))
        put("soc.setup_s", s.value, s.n, "median of round set-ups, scaled")
        put("soc.host_ns_per_stepped_cycle", fg * 1e9 / cnt["soc.cycles_stepped"], n,
            "FireGuard run / stepped cycles")
        o = overhead(hot_rounds(ser, "point_s"), hot_rounds(ser, "point_s", "traced_"))
        put("trace.overhead_frac", o.value, o.n,
            "median over round pairs of traced / untraced FireGuard time - 1")
    elif w == "campaign_sweep":
        points = cnt["campaign.points"]
        forked = stats.median(campaign_times(ser, "traced_"))
        inproc = stats.median(campaign_times(ser, "inprocess_"))
        how = "median campaign, scaled"
        put("campaign.points_per_s", points / forked.value, forked.n, how)
        put("campaign.inprocess_points_per_s", points / inproc.value, inproc.n,
            how + ", no fork per point")
        put("campaign.fork_overhead_frac", 1 - inproc.value / forked.value, inproc.n,
            "1 - in-process time / forked time")
        put("campaign.executed", cnt["campaign.executed"] / cnt["campaign.runs"],
            int(cnt["campaign.runs"]), "points executed per campaign")
        put("campaign.retries", cnt["campaign.retries"], int(cnt["campaign.runs"]),
            "retries, all campaigns")
        s = stats.median(ser["api.execute_s"])
        put("api.execute_s", s.value, s.n, "median PointExecutor::execute")
        v, n = pct(ser["store.publish_s"], 50, 1e6)
        put("store.publish_us_p50", v or 0.0, n, "p50 ResultStore::put")
        v, n = pct(ser["store.get_hit_s"], 50, 1e6)
        put("store.get_hit_us_p50", v or 0.0, n, "p50 ResultStore::get hit")
        o = overhead(campaign_times(ser), campaign_times(ser, "traced_"))
        put("trace.overhead_frac", o.value, o.n,
            "median over campaign pairs of traced / untraced time - 1")
    else:
        for kind in ("hit", "dedupe", "cold"):
            v, n = pct(ser.get(f"answer_ms.{kind}", []), 50)
            put(f"serve.{kind}_ms_p50", v or 0.0, n, f"p50 submit -> answer, {kind}")
        for p in (50, 95):
            v, n = pct(ser["answer_ms"], p)
            put(f"serve.answer_ms_p{p}", v or 0.0, n, f"p{p} submit -> answer")
        put("serve.exec_per_unique", cnt["serve.executed"] / cnt["serve.unique_points"],
            int(cnt["serve.unique_points"]), "executions / unique points")
        v, n = pct(ser["store.get_hit_s"], 50, 1e6)
        put("store.get_hit_us_p50", v or 0.0, n, "p50 ResultStore::get hit")
        put("trace.overhead_frac", 0.0, 0,
            "none: no span is recorded while the clients run")
    return m


# --- output ----------------------------------------------------------------------------

def fmt(v):
    return "refused" if v is None else f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec = root / "examples" / "campaign_quick.json"
    if not ((root / "CMakeLists.txt").is_file() and (root / "src").is_dir()
            and spec.is_file() and (root / "BENCHMARK.json").is_file()):
        log("fgperf: run from the root of a FireGuard checkout "
            "(CMakeLists.txt, src/, examples/ or BENCHMARK.json not found)")
        return 2
    driver = build(root)
    if driver is None:
        return 3

    work = root / ".bench_out" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--campaign-spec", str(spec)]
    # The driver and everything it forks (campaign workers, the serve daemon)
    # share one process group, so a timeout stops all of them.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log("fgperf: driver timed out")
        return 4
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    try:
        d = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"fgperf: driver exited {proc.returncode} without a result")
        return 4

    host = fingerprint(root, d["build"])
    correct = proc.returncode == 0 and d["failed"] == 0 and not d["errors"]
    for e in d["errors"]:
        log(f"fgperf: MISMATCH: {e}")

    bench = json.loads((root / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics, extra = per_layer(args.workload, d, units), {}
        else:
            metrics, extra = end_to_end(args.workload, d)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        # A run cut short by a failure lacks the samples its metrics need.
        log(f"fgperf: no metrics from this run: {e!r}")
        metrics, extra, correct = {}, {}, False

    print(f"fgperf {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} {'n':>6s}  estimator")
    for name, (v, unit, n, how) in {**metrics, **extra}.items():
        print(f"{name:34s} {fmt(v):>14s} {unit:6s} {n:6d}  {how}")
    if args.trace:
        print(f"{'span':34s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, (c, tot, slf) in sorted(self_times(d["spans"]).items()):
            print(f"{name:34s} {c:8d} {tot:10.4f} {slf:10.4f}")
    print(f"correct={str(correct).lower()} attempted={d['attempted']} "
          f"failed={d['failed']}")

    out_dir = root / ".bench_out"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "correct": correct,
              "attempted": d["attempted"], "failed": d["failed"],
              "metrics": {k: {"value": v, "unit": u, "n": n, "estimator": how}
                          for k, (v, u, n, how) in {**metrics, **extra}.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"raw-{tag}.json").write_text(json.dumps(d))
    (out_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (out_dir / f"trace-{tag}.json").write_text(
            json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                        "spans": d["spans"]}))

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, d["attempted"]),
        "failed": d["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
