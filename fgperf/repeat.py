#!/usr/bin/env python3
"""Steadiness check: run fgperf/run.py once per seed on each workload and
print, per end-to-end metric, the median and the interquartile range as a
share of the median, next to the bound in BENCHMARK.json.

    python3 fgperf/repeat.py --seeds 1-10 [--workloads hotloop_asan,service_mix]

Run from the repository root. Raw results go to .bench_out/repeat-*.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [*bench["command"], "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(last) if last.startswith("{") else {}
            if out.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {out.returncode})")
                return 1
            runs.append(res["metrics"])
        Path(".bench_out").mkdir(exist_ok=True)
        Path(f".bench_out/repeat-{w}.json").write_text(json.dumps(runs, indent=1))
        for name in runs[0]:
            xs = [r[name]["value"] for r in runs]
            share = stats.iqr_share(xs)
            flag = "" if share < bounds[name] / 3 else "  WIDE"
            worst = max(worst, share / bounds[name])
            print(f"{w:18s} {name:18s} median {stats.median(xs).value:12.6g} "
                  f"iqr/median {share:7.4f} bound {bounds[name]:.2f}{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
