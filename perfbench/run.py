#!/usr/bin/env python3
"""Build the layered benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout of the repository.  The OCaml program
is built in release mode into .bench_build/ (or $CARGO_TARGET_DIR when
it is set), with dune's shared cache off, so nothing is written outside
the checkout.  The build's output goes to standard error; then the
benchmark program replaces this process with all arguments, and its
last line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib", "core"))):
        sys.stderr.write("perfbench: %s is not a checkout of the repository "
                         "(no dune-project or lib/core); nothing to build\n" % root)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(build_dir, "cache")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--profile", "release",
         "--build-dir", os.path.join(build_dir, "dune"), "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(build_dir, "dune", "default", "perfbench", "bench.exe")
    args = sys.argv[1:]
    if "--smoke" in args:
        return smoke(root, exe, args)
    sys.stdout.flush()
    os.chdir(root)
    os.execv(exe, [exe] + args)


def smoke(root, exe, args):
    """Run every workload at toy size in both trace modes and check that
    each metric BENCHMARK.json names is reported with its unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = subprocess.run([exe] + args, cwd=root, stdout=subprocess.PIPE,
                         universal_newlines=True)
    sys.stdout.write(out.stdout)
    if out.returncode != 0:
        return out.returncode
    seen = set()
    missing = []
    for line in out.stdout.splitlines():
        if not line.startswith("SMOKE "):
            continue
        _, workload, trace, result = line.split(" ", 3)
        result = json.loads(result)
        seen.add((workload, trace))
        wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                missing.append("%s trace %s: %s [%s]" % (workload, trace, m["name"], m["unit"]))
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            if (w["name"], trace) not in seen:
                missing.append("%s trace %s: no result" % (w["name"], trace))
    if missing:
        sys.stderr.write("perfbench smoke: missing metrics:\n  " + "\n  ".join(missing) + "\n")
        return 1
    print("perfbench smoke: every workload reports every metric with its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
