#!/usr/bin/env python3
"""perfbench self-test: unit checks, then a smoke run of every workload.

    python3 perfbench/selftest.py

Run from the repository root.  Builds perfbench, runs perfbench_selftest
(percentile rule, ratio bases, metric names), then every workload in its
tiny --smoke configuration, untraced and traced, and checks that each
prints a correct result with exactly the metrics BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    spec = run.load_spec()
    bin_dir = run.build()
    subprocess.run([os.path.join(bin_dir, "perfbench_selftest")], check=True)

    failed = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = out.stdout.splitlines()
            ok = out.returncode == 0 and bool(lines)
            if ok:
                result = json.loads(lines[-1])
                names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
                ok = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
                      and result["correct"] and result["attempted"] >= 1
                      and result["failed"] == 0 and set(result["metrics"]) == names)
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                failed.append((workload, trace))
                sys.stderr.write(out.stdout + out.stderr)
    if failed:
        print(f"perfbench selftest: {len(failed)} smoke run(s) failed: {failed}")
        return 1
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
