"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  It starts bench/worker.py as a fresh
process that imports toruslink from src/ and runs the workload; with
--trace 0 it also starts SETUP_PROBES extra workers that stop after their
warm-up, and reports the median of the set-up times.  It prints a run
record line and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Without src/toruslink next to it, it exits with status 2 and no result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gen import WORKLOADS
from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 4
# A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(args, setup_only=False):
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    argv += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        fail(f"worker exited with status {proc.returncode} before finishing")
    return setup_s, rest


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="fixed small tasks (smoke test)")
    ap.add_argument("--corrupt", action="store_true", help="alter every output before its check (smoke test)")
    args = ap.parse_args()
    if not (SRC / "toruslink" / "__init__.py").is_file():
        fail(f"no toruslink package under {SRC}")

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(start_worker(args, setup_only=True)[0])
    setup_s, out = start_worker(args)
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])

    metrics = result["metrics"]
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": result["tasks"],
        "tasks_above_p90": result.get("above_p90"),
        "timed_s": result.get("timed_s"),
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "setup_samples_s": setups,
        "digest": result["digest"],
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": sys.version.split()[0],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
