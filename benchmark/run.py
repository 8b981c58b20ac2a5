#!/usr/bin/env python3
"""Build the sdrbist benchmark from this checkout and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary (Release) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build.  Later runs rebuild
incrementally.  Build output goes to stderr; stdout ends with the result
line the binary prints.  Each run's full record (metrics plus host
fingerprint) is appended to <build dir>/records.jsonl, and a traced run
writes its Chrome trace to <build dir>/traces/.  See benchmark/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no sdrbist source tree at {ROOT}")
    tree = build_dir / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(tree),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(tree), "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(step))
    return tree / "sdrbist_benchmark"


def commit() -> str:
    """The checkout's git commit, if it is a repository (never searching
    above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError) as e:
        log("run.py:", e)
        return 1

    work = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work),
           "--reference-dir", str(HERE / "reference"),
           "--commit", commit()]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    with open(build_dir / "records.jsonl", "a") as records:
        for line in lines:
            if line.startswith("BENCH_RECORD "):
                records.write(line[len("BENCH_RECORD "):] + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
