#!/usr/bin/env python3
"""Build and run the KSP-DG benchmark.

    python3 kspbench/run.py --workload query-local --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The first run compiles the program
(src/main/scala) and the benchmark (kspbench/src/main/scala) with the Scala
compiler that ships with Spark ($SPARK_HOME/jars) into .bench_build/; later
runs reuse the classes while the sources are unchanged. The JVM gets a fixed
heap (--heap) so that runs are comparable. Every other option is passed to
kspbench.Main; see kspbench/README.md for the workloads and metrics.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "classes")
STAMP = os.path.join(CLASSES, "SOURCES.sha256")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BENCH_SOURCES = os.path.join(HERE, "src", "main", "scala")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# JDK 17 module opens that Spark and kryo need (spark-submit adds the same).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"kspbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not glob.glob(os.path.join(jars, "spark-core_2.13-*.jar")):
        fail("no Spark 2.13 distribution found (set SPARK_HOME)")
    return jars


def sources():
    files = []
    for top in (PROGRAM_SOURCES, BENCH_SOURCES):
        files += glob.glob(os.path.join(top, "**", "*.scala"), recursive=True)
    return sorted(files)


def digest(files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def build(jars):
    files = sources()
    want = digest(files, jars)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == want:
        return
    compiler = [os.path.join(jars, f"scala-{m}-2.13.") for m in ("compiler", "library", "reflect")]
    compiler = [next(iter(sorted(glob.glob(c + "*.jar"))), None) for c in compiler]
    if None in compiler:
        fail("scala 2.13 compiler jars not found in the Spark distribution")
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = os.path.join(BUILD, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(f'"{f}"' for f in files))
    print(f"kspbench: compiling {len(files)} sources", file=sys.stderr)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", os.path.join(jars, "*"), "@" + argfile]
    try:
        subprocess.run(cmd, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    with open(os.path.join(tmp, "SOURCES.sha256"), "w") as fh:
        fh.write(want + "\n")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)


def main(argv):
    heap = "2g"
    if "--heap" in argv:
        i = argv.index("--heap")
        heap = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if "--workload" not in argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [options]")
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro", "core")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    os.makedirs(BUILD, exist_ok=True)
    jars = spark_jars()
    build(jars)
    tmpdir = os.path.join(BUILD, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    # -UsePerfData: no hsperfdata file outside the checkout.
    cmd = (["java", "-XX:-UsePerfData", f"-Xms{heap}", f"-Xmx{heap}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + [f"-Djava.io.tmpdir={tmpdir}",
              f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
              "-cp", os.pathsep.join([CLASSES, os.path.join(jars, "*")]),
              "kspbench.Main"] + argv)
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
