#!/usr/bin/env python3
"""Entry point of the benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lubm-hash --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark from source when needed (perfbench/build.py),
then runs one JVM that measures the workload and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The full record
of the run goes to .bench_build/perfbench/results/. Exits non-zero, without a
result line, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("lubm-hash", "yago-heavy")
RUN_TIMEOUT_S = 170
HEAP = "2g"


def git_commit():
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    def git(*args):
        out = subprocess.run(["git", "-C", build.ROOT, *args], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(build.ROOT):
            return "unknown (not a git checkout)"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="generator seed (default: 7 for LUBM, 11 for YAGO2)")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        digest = build.build()
        cp = build.classpath()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    # per-run scratch (Spark local dirs, native libraries the JVM unpacks)
    tmp = os.path.join(build.OUT, "tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        return measure(a, cp, digest, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(a, cp, digest, tmp):
    seed = "default" if a.seed is None else str(a.seed)
    out = os.path.join(build.OUT, "results", f"{a.workload}-seed{seed}-trace{a.trace}.json")
    cmd = ["java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", out, "--commit", git_commit(), "--source-hash", digest]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        print(f"[perfbench] run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
