#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 10 --trace 0

The Go toolchain's caches and the binary go under the build directory
($CARGO_TARGET_DIR if set, else .bench_build), so the run writes nothing
outside the checkout. The last line of standard output is the result
object; the exit status is the benchmark's own (non-zero on any failed
check, or when the repository sources are missing and the build fails).
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def go_env(build: pathlib.Path) -> dict:
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(build / "gocache"),
        "GOMODCACHE": str(build / "gomodcache"),
        "GOPATH": str(build / "gopath"),
        "XDG_CONFIG_HOME": str(build / "config"),
        "XDG_CACHE_HOME": str(build / "cache"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    return env


def commit(root: pathlib.Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build.mkdir(parents=True, exist_ok=True)
    env = go_env(build)
    binary = build / "perfbench"
    # Build output goes to stderr: stdout carries only the benchmark's.
    made = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return made.returncode

    run_env = dict(env)
    run_env["GOMAXPROCS"] = str(min(2, os.cpu_count() or 1))
    args = sys.argv[1:] + ["--trace-dir", str(build / "trace"),
                           "--commit", commit(HERE.parent)]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
