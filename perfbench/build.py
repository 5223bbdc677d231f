#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the engine sources (`src/main/scala`) together with the benchmark's
own sources (`perfbench/src`) with the Scala compiler that ships in the Spark
distribution, into `.bench_build/perfbench/classes` of the checkout. A stamp
over the source contents skips the compile when nothing changed.

    python3 perfbench/build.py          # build (or confirm the build is current)

Needs `SPARK_HOME` (Spark 4, Scala 2.13 jars) and the DuckDB JDBC jar in the
local coursier cache, the same dependency the root sbt build declares.
"""
import glob
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "build.stamp")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        raise BuildError("SPARK_HOME is not set")
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not any("scala-compiler" in os.path.basename(j) for j in jars):
        raise BuildError(f"no scala-compiler jar under {home}/jars")
    return jars


def duckdb_jar():
    cache = os.environ.get("COURSIER_CACHE") or os.path.expanduser("~/.cache/coursier/v1")
    found = sorted(glob.glob(os.path.join(cache, "**", "org", "duckdb", "duckdb_jdbc", "*",
                                          "duckdb_jdbc-*.jar"), recursive=True))
    found = [j for j in found if not j.endswith(("-sources.jar", "-javadoc.jar"))]
    if not found:
        raise BuildError(f"duckdb_jdbc jar not found in the coursier cache {cache}")
    return found[-1]


def sources():
    if not os.path.isdir(ENGINE_SRC):
        raise BuildError(f"engine sources missing: {ENGINE_SRC}")
    files = []
    for base in (ENGINE_SRC, BENCH_SRC):
        files += sorted(glob.glob(os.path.join(base, "**", "*.scala"), recursive=True))
    return files


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """Runtime classpath: compiled classes, Spark, DuckDB."""
    return os.pathsep.join([CLASSES] + spark_jars() + [duckdb_jar()])


def build(log=sys.stderr):
    """Compile when the sources changed; returns the source hash of the build."""
    files = sources()
    digest = source_hash(files)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == digest:
        return digest
    jars = spark_jars()
    compile_cp = os.pathsep.join(jars + [duckdb_jar()])
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(CLASSES, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    for old in glob.glob(os.path.join(CLASSES, "**", "*.class"), recursive=True):
        os.remove(old)
    print(f"[build] compiling {len(files)} Scala files", file=log, flush=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.pathsep.join(jars), "scala.tools.nsc.Main",
           "-nowarn", "-encoding", "utf8", "-classpath", compile_cp, "-d", CLASSES] + files
    proc = subprocess.run(cmd, stdout=log, stderr=log)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")
    return digest


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[build] error: {e}", file=sys.stderr)
        sys.exit(2)
