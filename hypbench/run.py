#!/usr/bin/env python3
"""Run one HypDB benchmark workload in one JVM and print its result.

Usage (from the repository root):
  python3 hypbench/run.py --workload flight-analyze --seed 1 --seconds 30 --trace 0

Builds the program first if needed (see build.py), then starts one JVM
with the Spark and JVM settings pinned below, so that every commit is
measured under identical settings. The JVM prints one line per call and,
last, one JSON object; this script checks that object against
BENCHMARK.json and prints it as its own last line. It exits non-zero,
without a result, if the build, the run or that check fails, and with the
JVM's code if the program's answers were wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import signal
import sys
import threading

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
from build import ROOT, HERE, build, spark_jars

# Pinned environment: local[THREADS] (capped at the cores present), one
# caller thread, and the session settings of jobs/JobUtil.session.
THREADS = 4
HEAP = "2g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    # spark.range splits, and so the generated data, follow this value
    "spark.default.parallelism": str(THREADS),
    "spark.driver.host": "127.0.0.1",
    "spark.driver.bindAddress": "127.0.0.1",
}
# the module options spark-submit passes to a Java 17 driver
JAVA_MODULES = ["--add-modules=jdk.incubator.vector"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")]
WORKLOADS = ("flight-analyze", "staples-analyze", "q1-sweep")
JVM_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json {want}")
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    classes = build()
    work = os.path.join(HERE, ".work")
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    threads = min(THREADS, os.cpu_count() or 1)
    conf = dict(SPARK_CONF, **{
        "spark.master": f"local[{threads}]",
        "spark.local.dir": os.path.join(work, "local"),
        "spark.sql.warehouse.dir": os.path.join(work, "warehouse"),
    })
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
           + JAVA_MODULES
           + [f"-D{k}={v}" for k, v in sorted(conf.items())]
           + ["-cp", os.pathsep.join([classes, os.path.join(spark_jars(), "*")]),
              "hypbench.HypBench", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print(f"env threads={threads} nproc={os.cpu_count()} heap={HEAP} "
          f"python={sys.version.split()[0]}", flush=True)

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # on SIGTERM, unwind through the finally below so the JVM is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    watchdog = threading.Timer(JVM_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code == -signal.SIGKILL:
        sys.exit(f"run: the JVM did not finish within {JVM_TIMEOUT_S} s")

    try:
        res = check_result(last or "", args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        if last:
            print(last, file=sys.stderr)
        sys.exit(f"run: no valid result (JVM exit code {code}): {e}")
    print(json.dumps(res), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
