#!/usr/bin/env python3
"""Build the system and the benchmark from this checkout, then run one
seeded workload in its own fixed-heap JVM.

    python3 featbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 featbench/run.py --self-test

The last line of standard output is the result JSON. Build output goes to
the sbt target directories and to .bench_build/featbench (classpath, run
records, traces); the build is redone only when a source or build file
changed.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build", "featbench")
WORKLOADS = {"request-wide": "2g", "request-mixed": "2g", "offline-batch": "3g", "union-stream": "2g"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module opens the spark-submit launcher would add on JDK 17.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"featbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_command():
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        cmd += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    return cmd + ["export Runtime/fullClasspath"]


def classpath():
    """The runtime classpath, rebuilding when the sources changed."""
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp_file = os.path.join(OUT, "build.stamp")
    want = stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    print("featbench: building (sbt)", file=sys.stderr)
    try:
        p = subprocess.run(sbt_command(), cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    lines = [l.strip() for l in p.stdout.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if p.returncode != 0 or not lines or lines[-1].startswith("["):
        fail("build failed", 1)
    cp = lines[-1]
    os.makedirs(OUT, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(stamp_file, "w") as f:
        f.write(want + "\n")
    return cp


def git_sha():
    try:
        # Never report the sha of a repository that merely encloses this one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        top, _, sha = p.stdout.strip().partition("\n")
        if p.returncode != 0 or os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return sha
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seconds is not None and a.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and
            os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail(f"no system sources next to {os.path.basename(BENCH)}/ (expected build.sbt and src/main/scala/repro)")

    cp = classpath()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    heap = WORKLOADS.get(a.workload, "1g")
    jvm = ["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={tmp}", f"-Dfeatbench.gitSha={git_sha()}"]
    jvm += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    jvm += ["-cp", cp, "featbench.Main"]
    if a.self_test:
        jvm += ["--self-test"]
    else:
        jvm += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--out", OUT]
    sys.stdout.flush()
    proc = subprocess.Popen(jvm, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
