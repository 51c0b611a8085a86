#!/usr/bin/env python3
"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload mc_paper --seed 7 --seconds 10 --trace 0

Run from the repository root.  The script builds perfbench/ (and with it
the repcheck sources under src/) into .bench_build/perfbench, gives
perfbench_driver a fresh run directory, checks that it reported exactly the
metrics BENCHMARK.json names, stamps the result with the host and build,
and appends it to .bench_build/perfbench/ledger.jsonl.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_spec(path="BENCHMARK.json"):
    with open(path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"invalid or repeated names in {path}: {bad}")
    return spec


def build():
    """Configures once, then builds incrementally; raises on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bin")


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code without git."""
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x)
    sha = git("rev-parse", "HEAD") if os.path.isdir(".git") else None
    dirty = None
    if sha is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version.stdout.splitlines()[0] if version.stdout else compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
    }


def run_driver(bin_dir, run_dir, args, timeout):
    """Runs perfbench_driver in its own session; kills its group on any exit."""
    cmd = [os.path.join(bin_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--bin-dir", bin_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        else:
            try:  # reap any grandchild left in the group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return proc.returncode, out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny configs (self-test)")
    args = p.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]

    try:
        bin_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    run_dir = os.path.join(BUILD_DIR, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        code, out = run_driver(bin_dir, run_dir, args,
                               timeout=min(170.0, 60.0 + 4.0 * args.seconds))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        log(f"driver exited with {code}")
        return 1
    result = json.loads(lines[-1])
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want) or any(got[n]["unit"] != u for n, u in want.items()):
        log(f"driver metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}")
        return 1

    stamp = host_stamp()
    for line in lines[:-1]:
        print(line)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    with open(os.path.join(BUILD_DIR, "ledger.jsonl"), "a") as f:
        f.write(json.dumps({"time": time.time(), "workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
                            "result": result}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
