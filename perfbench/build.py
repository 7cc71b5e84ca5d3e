"""Build step of the tracker replay benchmark.

Compiles the program (src/main/scala) together with the benchmark's own
sources, using the Scala compiler that ships among Spark's jars, into
.bench_build/perfbench/classes, then runs the benchmark's self-tests. A build
is reused while no source file changed. Needs SPARK_HOME and a JDK on PATH.

    python3 perfbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.sha256"

# One fixed JVM shape for every run: fixed heap and young generation, and a
# non-adaptive collector, so GC pauses fall the same way on every run. No
# perf-data file, which the JVM would otherwise write outside the checkout.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-Xmn1g",
    "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:-UseAdaptiveSizePolicy",
    "-XX:-UsePerfData",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("SPARK_HOME must point at a Spark distribution")
    return Path(home) / "jars"


def sources():
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise BuildError("no program sources under src/main/scala")
    return program + sorted((BENCH / "src").rglob("*.scala")) + sorted((BENCH / "selftest").rglob("*.scala"))


def classpath():
    return f"{CLASSES}{os.pathsep}{spark_jars() / '*'}"


def java(main, args, **kw):
    """Run `main` from the built classes in the benchmark's JVM."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", classpath(), main, *args]
    return subprocess.Popen(cmd, cwd=ROOT, **kw)


def digest(files):
    h = hashlib.sha256()
    for f in [Path(__file__).resolve(), *files]:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile and self-test unless the last build saw the same sources."""
    files = sources()
    want = digest(files)
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == want:
        return
    shutil.rmtree(CLASSES, ignore_errors=True)
    STAMP.unlink(missing_ok=True)
    CLASSES.mkdir(parents=True)
    jars = str(spark_jars() / "*")
    compiled = subprocess.run(
        ["java", "-Xss4m", "-Xmx1g", "-XX:-UsePerfData", "-cp", jars, "scala.tools.nsc.Main", "-nowarn",
         "-d", str(CLASSES), "-classpath", jars, *map(str, files)],
        cwd=ROOT, stdout=sys.stderr,
    )
    if compiled.returncode != 0:
        raise BuildError("compilation failed")
    selftest = java("repro.perfbench.SelfTest", [str(OUT / "selftest")], stdout=sys.stderr)
    try:
        if selftest.wait() != 0:
            raise BuildError("self-tests failed")
    finally:
        if selftest.poll() is None:
            selftest.kill()
            selftest.wait()
    STAMP.write_text(want)


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        sys.exit(f"build: {e}")
