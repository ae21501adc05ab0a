#!/usr/bin/env python3
"""Check that the benchmark's own correctness checks can fail.

    python3 perfbench/controls.py

Runs two short negative controls on fleet-10k from the repository root:

- corrupt-payment sets ServerConfig.Fault.CorruptPayment, so the platform
  sends awards whose payments differ from the reference MSOA's; the
  correctness gate must report the run incorrect.
- withhold makes the fleet's first session skip its batch in the first
  measured round; the run must report a failed share above zero.

Exits non-zero if either control passes unnoticed.
"""
import json
import subprocess
import sys


def run_control(control):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--control", control],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ok = True
    res = run_control("corrupt-payment")
    tripped = not res["correct"] and res["failed"] > 0
    print(f"corrupt-payment: correct={res['correct']} failed={res['failed']}"
          f"/{res['attempted']} -> {'caught' if tripped else 'MISSED'}")
    ok = ok and tripped

    res = run_control("withhold")
    tripped = res["failed"] > 0
    print(f"withhold: correct={res['correct']} failed={res['failed']}"
          f"/{res['attempted']} -> {'caught' if tripped else 'MISSED'}")
    ok = ok and tripped
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
