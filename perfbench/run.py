#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <sweep|oneshot|serve_read|serve_write> \
        --seed N --seconds S --trace 0|1

Builds the runner (`perfbench`) and the `csp-served` binary from source in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the runner with the given arguments. The runner prints a human-readable
report and, as the last line of stdout, one JSON result object. Exits
nonzero if the build fails, an output check fails, or the run overruns
its deadline (every process it started is killed first).
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Leaves headroom under the 180-second limit for one run.
RUN_DEADLINE_S = 170.0


def source_digest(root):
    """A digest of the sources the benchmark builds (the checkout need not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock", ".cargo"):
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    started = time.monotonic()
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "perfbench", "-p", "csp-serve", "--bins",
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_GIT_REV"] = git_rev(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    cmd = [
        os.path.join(target, "perfbench"),
        *sys.argv[1:],
        "--served-bin", os.path.join(target, "csp-served"),
        "--work-dir", os.path.join(root, ".bench_work"),
    ]
    # A session of its own, so a timeout can kill the runner together
    # with every server it spawned.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    budget = max(120.0, RUN_DEADLINE_S - (time.monotonic() - started))
    try:
        return proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: run exceeded {budget:.0f}s; killed", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
