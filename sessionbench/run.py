#!/usr/bin/env python3
"""Build and run the LEGaTO session benchmark.

Usage, from the root of the source tree:

    python3 sessionbench/run.py --workload dag-wide --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in this directory; it imports the legato
module from the parent directory. The wrapper builds it with every Go cache
kept under the build directory ($CARGO_TARGET_DIR, default .bench_build)
and then runs it (see measure), printing its stamp line and, as the last
line, its result. Without the legato sources beside it the build fails and
the wrapper exits with status 2 without printing a result.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 7


def commit(home):
    """The source tree's git commit, or "" outside a repository. The search
    stops at the tree's root and no user or system git config is read."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", HOME=home)
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return ""
    return r.stdout.strip() if r.returncode == 0 else ""


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    out = os.path.join(build_dir, "sessionbench")
    home = os.path.join(out, "home")
    tmp = os.path.join(out, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
    })
    env.setdefault("BENCH_COMMIT", commit(home))
    binary = os.path.join(out, "sessionbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("sessionbench: build failed\n")
        return 2
    return measure(binary, sys.argv[1:], env)


def flag(args, name, default):
    for i, a in enumerate(args[:-1]):
        if a in ("-" + name, "--" + name):
            return args[i + 1]
    return default


def measure(binary, args, env):
    """Run the benchmark. An untraced run is split over PROCESSES fresh
    processes sharing the --seconds budget, and each metric is the median of
    their values: on a shared host a process's whole run drifts with its
    placement, so the median over processes is steadier than one long run.
    The traced run is one process."""
    try:
        seconds = int(flag(args, "seconds", "10"))
    except ValueError:
        seconds = 0  # the benchmark itself reports the usage error
    parts = min(PROCESSES, seconds)
    if flag(args, "trace", "0") != "0" or parts < 2:
        sys.stdout.flush()
        return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode
    stamp, results = None, []
    for i in range(parts):
        share = seconds // parts + (1 if i < seconds % parts else 0)
        child = subprocess.run([binary] + set_flag(args, "seconds", str(share)), cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or len(lines) < 2:
            sys.stdout.write(child.stdout)
            return child.returncode or 2
        stamp = stamp or json.loads(lines[-2])
        results.append(json.loads(lines[-1]))
    stamp["stamp"]["seconds"] = seconds
    stamp["stamp"]["processes"] = parts
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results), "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()
        },
    }
    print(json.dumps(stamp))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def set_flag(args, name, value):
    out, skip = [], False
    for i, a in enumerate(args):
        if skip:
            skip = False
            continue
        if a in ("-" + name, "--" + name) and i + 1 < len(args):
            skip = True
            continue
        out.append(a)
    return out + ["--" + name, value]


if __name__ == "__main__":
    sys.exit(main())
