#!/usr/bin/env python3
"""Build the sptc benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite|compile|daemon \
        --seed N --seconds S --trace 0|1

The Go toolchain builds perfbench (this directory's module) and sptd into
the build directory ($CARGO_TARGET_DIR, default .bench_build, relative to
the repository root), with the build cache and temporary files kept there
too. The last line of standard output is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(out):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    for target, pkg in (("perfbench", "."), ("sptd", "sptc/cmd/sptd")):
        subprocess.run(
            ["go", "build", "-o", os.path.join(out, target), pkg],
            cwd=HERE, env=env, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["suite", "compile", "daemon"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-sptd", os.path.join(out, "sptd"), "-workdir", work]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
