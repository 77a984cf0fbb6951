#!/usr/bin/env python3
"""Detector benchmark: build the detector from source, run one workload, print metrics.

Usage, from the repository root:

    python3 detbench/run.py --workload global-german --seed 1 --seconds 25 --trace 0

The program (src/main/scala) and the benchmark (detbench/src) are compiled
with the Scala compiler shipped in Spark's jars into .bench_build/detbench;
the build is reused while the sources are unchanged. The benchmark JVM
prints one line per metric and, as its last line, a JSON result object.
See detbench/README.md for the workloads and metrics.

    python3 detbench/run.py --workload <name> --write-reference

re-derives a workload's stored resByK digest at its default seed, after
checking that the detection and a second algorithm agree.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM = ROOT / "src" / "main" / "scala"
BUILD = ROOT / ".bench_build" / "detbench"
WORKLOADS = ["global-german", "itertd-compas100k"]
# A run must end within 180 s; the JVM is stopped a little before that.
RUN_LIMIT_S = 175


def fail(msg):
    print(f"detbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("Spark not found: set SPARK_HOME")
    return Path(home) / "jars"


def sources():
    if not PROGRAM.is_dir():
        fail(f"program sources missing: {PROGRAM.relative_to(ROOT)} (run from a full checkout)")
    files = sorted(PROGRAM.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    if not any(f.is_relative_to(PROGRAM) for f in files):
        fail("no program sources to build")
    return files


def build(jars):
    """Compile program and benchmark; returns (classes dir, source digest)."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    digest = h.hexdigest()
    classes = BUILD / "classes"
    stamp = BUILD / "stamp"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return classes, digest
    print(f"detbench: compiling {len(files)} Scala files", file=sys.stderr)
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    cp = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    args_file = BUILD / "scalac.args"
    args_file.write_text("\n".join(str(f) for f in files) + "\n")
    r = subprocess.run(
        ["java", "-Xss8m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
         "-nowarn", "-classpath", cp, "-d", str(classes), f"@{args_file}"],
        cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(classes, ignore_errors=True)
        fail("compilation failed")
    stamp.write_text(digest)
    return classes, digest


def commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true")
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    jars = spark_jars()
    classes, digest = build(jars)
    seed_tag = "default" if a.seed is None else a.seed
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [
        "java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ReservedCodeCacheSize=512m",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dspark.local.dir={BUILD / 'spark-local'}",
        f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        "-cp", os.pathsep.join([str(classes), str(jars / "*")]),
        "repro.bench.DetBench",
        "--workload", a.workload,
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--reference", str(BENCH / "reference.tsv"),
        "--trace-file", str(BUILD / f"trace-{a.workload}-seed{seed_tag}.json"),
        "--commit", commit(),
        "--source-digest", digest,
    ]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    if a.write_reference:
        cmd.append("--write-reference")
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=None if a.write_reference else RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark JVM exceeded {RUN_LIMIT_S} s and was stopped")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
