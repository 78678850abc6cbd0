#!/usr/bin/env python3
"""Build and run the hot-path wall-clock harness; emit BENCH_hotpaths.json.

Drives bench/bench_hotpath_wallclock (see docs/PERFORMANCE.md):

  1. configures + builds a RelWithDebInfo tree (unless --skip-build) — the
     build type tier-1 and perfbench ship; Release's -O3 vectorizes loops
     the shipped -O2 build does not,
  2. runs the harness single-threaded (OMR_JOBS=1: its entries otherwise
     run concurrently and time each other's contention) to get one
     labelled result set, stamped with the build type and OMR_JOBS,
  3. optionally merges a baseline result set (--baseline) into a single
     before/after document with per-benchmark speedups and a check that
     the simulated outputs (completion time, messages, rounds,
     retransmissions) are bit-identical between the two runs.

Typical use, recording a perf PR:

  # once, at the baseline commit:
  tools/run_hotpath_bench.py --label baseline --out /tmp/base.json
  # at the tip:
  tools/run_hotpath_bench.py --label after --baseline /tmp/base.json \
      --out BENCH_hotpaths.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_TYPE = "RelWithDebInfo"

SIM_KEYS = (
    "sim_completion_ns",
    "sim_total_messages",
    "sim_rounds",
    "sim_retransmissions",
)


def build(build_dir: str) -> str:
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(REPO, build_dir)
    # Configure every time: an existing tree keeps whatever build type it
    # was made with otherwise.
    subprocess.run(
        ["cmake", "-S", REPO, "-B", build_dir,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        check=True,
    )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4),
         "--target", "bench_hotpath_wallclock"],
        check=True,
    )
    return build_dir


def cached_build_type(build_dir: str) -> str:
    """CMAKE_BUILD_TYPE of a configured tree ("" when unset or unknown)."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def run_harness(build_dir: str, label: str, smoke: bool) -> dict:
    exe = os.path.join(build_dir, "bench", "bench_hotpath_wallclock")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    cmd = [exe, "--label", label, "--out", out_path]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, env=dict(os.environ, OMR_JOBS="1"))
    with open(out_path) as f:
        doc = json.load(f)
    os.unlink(out_path)
    doc["build_type"] = cached_build_type(build_dir)
    doc["omr_jobs"] = 1
    return doc


def compare(baseline: dict, current: dict) -> list:
    base_by_name = {r["name"]: r for r in baseline["results"]}
    rows = []
    for cur in current["results"]:
        base = base_by_name.get(cur["name"])
        if base is None:
            continue
        row = {
            "name": cur["name"],
            "baseline_ms": base["wall_ms"],
            "current_ms": cur["wall_ms"],
            "speedup": round(base["wall_ms"] / cur["wall_ms"], 2)
            if cur["wall_ms"] > 0
            else 0.0,
        }
        if any(k in cur for k in SIM_KEYS) and any(k in base for k in SIM_KEYS):
            row["sim_identical"] = all(
                base.get(k) == cur.get(k) for k in SIM_KEYS
            )
        rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build-perf")
    ap.add_argument("--label", default="current")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-scale workloads (seconds, noisy)")
    ap.add_argument("--baseline",
                    help="baseline result JSON to merge and compare against")
    ap.add_argument("--out", default="BENCH_hotpaths.json")
    ap.add_argument("--skip-build", action="store_true",
                    help="assume the harness binary is already built")
    ap.add_argument("--run-json",
                    help="use an existing harness output instead of running "
                         "(implies --skip-build)")
    args = ap.parse_args()

    if args.run_json:
        with open(args.run_json) as f:
            current = json.load(f)
    else:
        build_dir = (
            args.build_dir
            if args.skip_build
            else build(args.build_dir)
        )
        if not os.path.isabs(build_dir):
            build_dir = os.path.join(REPO, build_dir)
        current = run_harness(build_dir, args.label, args.smoke)

    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        doc = {
            "schema": "omnireduce.bench_hotpaths.v2",
            "generated_by": "tools/run_hotpath_bench.py",
            "baseline": baseline,
            "current": current,
            "comparison": compare(baseline, current),
        }
    else:
        doc = current

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    if args.baseline:
        bad_sim = [r["name"] for r in doc["comparison"]
                   if r.get("sim_identical") is False]
        for r in doc["comparison"]:
            print(f"  {r['name']:28s} {r['baseline_ms']:9.2f} ms -> "
                  f"{r['current_ms']:9.2f} ms  ({r['speedup']:.2f}x)")
        if bad_sim:
            print(f"ERROR: simulated outputs diverged: {', '.join(bad_sim)}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
