#!/usr/bin/env python3
"""Build and run the platform benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet-10k --seed 1 --seconds 10 --trace 0

The Go build cache and the binary live in .bench_build/ under the
checkout, so nothing is read or written outside it. The benchmark's last
stdout line is its JSON result; build output goes to stderr.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--control", default="",
                    help="negative control: corrupt-payment or withhold")
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    gotmp = os.path.join(build, "gotmp")
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": gotmp,
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."],
                       cwd=os.path.join(root, "perfbench"), env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", build]
    if args.control:
        cmd += ["--control", args.control]
    # The benchmark starts its fleet as a child process; running it in a
    # session of its own lets a timeout kill the fleet along with it.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
