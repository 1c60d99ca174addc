#!/usr/bin/env python3
"""Compile the HypDB program and the benchmark into one class directory.

The program's sources (src/main/scala) and the benchmark's (hypbench/src)
are compiled together with the Scala compiler among Spark's jars, so
no build tool, dependency resolution or network is needed. The output goes
to hypbench/.build/<hash of the sources>/ and is reused while the sources
are unchanged.

Usage: python3 hypbench/build.py      (prints the class directory)
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")
OUT = os.path.join(HERE, ".build")


def spark_jars():
    """$SPARK_HOME/jars, else the jars beside the first bin/ on PATH that has them."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    raise SystemExit("build: no Spark jars with a Scala compiler found (set SPARK_HOME)")


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise SystemExit(f"build: program sources not found at {PROGRAM_SRC}")
    found = []
    for top in (PROGRAM_SRC, BENCH_SRC):
        for d, _, files in os.walk(top):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build():
    """Return the class directory for the current sources, compiling if needed."""
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256(" ".join(sorted(os.listdir(jars))).encode())
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    classes = os.path.join(OUT, h.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes
    os.makedirs(OUT, exist_ok=True)
    for stale in os.listdir(OUT):
        shutil.rmtree(os.path.join(OUT, stale), ignore_errors=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="tmp-")
    cmd = ["java", "-Xss4m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={OUT}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + srcs
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SystemExit(f"build: scalac failed with code {done.returncode}")
    os.rename(tmp, classes)
    return classes


if __name__ == "__main__":
    print(build())
