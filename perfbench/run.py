#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload paper_4k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); its output goes to stderr, so the last
stdout line is the benchmark's JSON result. Exits non-zero without a result
when the build or the run fails, or the run overstays its time limit.
"""
import os
import subprocess
import sys
from pathlib import Path

RUN_LIMIT_S = 170


def build(here: Path) -> Path:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_root / "perfbench").resolve()
    steps = [
        ["cmake", "-S", str(here), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main() -> int:
    binary = build(Path(__file__).resolve().parent)
    proc = subprocess.Popen([str(binary)] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_LIMIT_S} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
