#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is built with CMake into $CARGO_TARGET_DIR (default .bench_build)
and run in one single-threaded process with OMR_JOBS=1 and OMR_SIM_THREADS
unset. The full record (metrics, simulated-output digest, host stamp) goes to
.bench_out/ and is printed first; the last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. A failed check still prints the
result, with "correct": false, and exits 1. A build or run failure exits 1
without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("sparse_embed", "codec_spine", "serve_cotenant", "zoo_rotation")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver gets this long beyond --seconds to finish set-up and probes.
RUN_SLACK_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "omr_perfbench",
               "-j", jobs])
    exe = os.path.join(build_dir, "omr_perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{' '.join(cmd[:3])} failed ({proc.returncode})")


SPIN = "import time\nt=time.monotonic()\nx=0\nfor i in range(%d): x+=i\nprint(t, time.monotonic())"


def spin_probe(n=2_000_000):
    """Effective parallelism: nproc concurrent spinners vs one, by wall time."""
    cpus = os.cpu_count() or 1

    def spinners(k):
        procs = [subprocess.Popen([sys.executable, "-c", SPIN % n],
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(k)]
        spans = [tuple(map(float, p.communicate()[0].split())) for p in procs]
        return max(e for _, e in spans) - min(s for s, _ in spans)

    serial = min(spinners(1) for _ in range(2))
    parallel = spinners(cpus)
    return cpus * serial / parallel


def host_stamp():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                digest.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "effective_parallelism": round(spin_probe(), 3),
        "git_rev": git_rev,
        "source_sha256": digest.hexdigest(),
        "OMR_JOBS": "1",
        "OMR_SIM_THREADS": None,
        "python": sys.version.split()[0],
        "unix_time": time.time(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    stamp = host_stamp()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, OMR_JOBS="1")
    env.pop("OMR_SIM_THREADS", None)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("driver printed no record")

    record["host"] = stamp
    record["args"] = vars(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
