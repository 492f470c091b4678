#!/usr/bin/env python3
"""Build and run the ingestion benchmark from the root of a source tree.

    python3 ingestbench/run.py --workload <bulk_file|cascade_paced|ingest_read> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `ingestbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `ingestbench/target`), runs it with the given arguments from the
current directory and passes its output through: the last stdout line is the
JSON result. Exits non-zero without a result when the repository sources are
missing, the build fails, or the run exceeds its time limit.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("crates", "src", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("ingestbench: repository sources not found beside the benchmark",
              file=sys.stderr)
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"ingestbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return 1
    exe = os.path.join(target, "release", "ingestbench")
    env = dict(os.environ, INGESTBENCH_COMMIT=source_id())
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("ingestbench: run exceeded its time limit", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
