#!/usr/bin/env python3
"""Build and run the libpreempt end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload control-plane --seed 1 --seconds 20 --trace 0

Workloads: control-plane, sweep-mc, fleet (see perfbench/workloads.json).
--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
per-layer breakdown instead. The build goes to $CARGO_TARGET_DIR (default
.bench_build); run artefacts (journals, spans, full results) go to .bench_run.
All build output goes to stderr; the last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("control-plane", "sweep-mc", "fleet")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(root: Path) -> str:
    """sha256 over the library sources, so result sets without a git SHA can
    still tell whether they measured the same code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not itself a
    git work tree (an enclosing repository's HEAD would be wrong)."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(os.cpu_count() or 1)
    # Configure every time: a no-op on a matching cache, and a loud failure
    # when the build directory was configured for another checkout (whose
    # code `cmake --build` would otherwise rebuild and run).
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=1500)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        return fail(f"{root} holds no libpreempt sources (CMakeLists.txt and src/); "
                    "run from the repository root")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as exc:
        return fail(f"build failed: {exc}")

    out_dir = root / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--config", str(BENCH_DIR / "workloads.json"),
           "--out", str(out_dir),
           "--git-sha", git_sha(root),
           "--src-digest", source_digest(root)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        return fail("benchmark run exceeded 170 s")


if __name__ == "__main__":
    sys.exit(main())
