#!/usr/bin/env python3
"""Builds the simulator's host-speed benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload mem_sweep --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
incremental. Build output goes to stderr. Standard output carries the
benchmark's own lines, then a provenance line (host fingerprint, git sha,
source digest, seed, workload digest), then, last, the JSON result.

Arguments are strict: an unknown flag or a malformed number exits 2.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mem_sweep", "svc_chain", "ctr_churn", "fleet")


def whole_number(lo, hi):
    def parse(text):
        if not text.isdigit() or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(f"expected a whole number from {lo} to {hi}")
        return int(text)

    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=whole_number(0, 2**63 - 1))
    p.add_argument("--seconds", required=True, type=whole_number(1, 3600))
    p.add_argument("--trace", required=True, type=whole_number(0, 1))
    p.add_argument("--spans-out", help="where the traced run writes its spans "
                   "(default: spans-<workload>-seed<n>.json in the build directory)")
    p.add_argument("--fault", choices=("digest", "leak"),
                   help="test hook: make the digest or the leak checks fail")
    return p.parse_args(argv)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"error: simulator sources not found under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("error: benchmark build failed")
    return os.path.join(out_dir, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main(argv):
    args = parse_args(argv)
    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # Spans stay in memory during the run and are written when it ends.
        spans_out = args.spans_out or os.path.join(
            os.path.dirname(binary), f"spans-{args.workload}-seed{args.seed}.json")
        cmd += ["--spans-out", spans_out]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        sys.exit("error: benchmark timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    provenance = json.loads(lines[-2])
    result = json.loads(lines[-1])
    provenance["provenance"].update(git_sha=git_sha(), source_sha256=source_digest())
    for line in lines[:-2]:
        print(line)
    print(json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
