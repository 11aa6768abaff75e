"""The measured process: one workload run, started fresh by run.py.

It imports toruslink from the checkout's src/, runs an untimed warm-up,
prints READY (run.py times set-up up to that line), then runs the
workload's seeded tasks one after another in a closed loop until the
tasks have taken --seconds in total (Run.loop has the exact stopping
rule).  Each output is recorded, digested
and checked between tasks, outside the timed interval.  The last stdout
line is a JSON summary for run.py.

With --trace 1 it instead runs the task list untraced, clears the
library's caches, runs the same tasks again with tracer.py's wrappers
installed, and reports per-layer metrics and the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import gen
import tasks
from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def load_library():
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("toruslink")
    modules = {m: importlib.import_module(f"toruslink.{m}") for m in MODULES}
    return package, modules


def clear_caches(modules):
    for module in modules.values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class Run:
    def __init__(self, args, lib):
        self.args = args
        self.lib = lib
        self.env = tasks.cli_env(str(SRC))
        self.digest = hashlib.sha256()
        self.digest_len = gen.round_length(args.workload, args.tiny)
        self.digested = 0
        self.attempted = 0
        self.failures = []

    def task(self, i):
        return gen.make_task(self.args.workload, self.args.seed, i, self.args.tiny)

    def timed(self, task):
        t0 = time.perf_counter()
        try:
            raw = tasks.run(self.lib, task, self.env)
        except Exception:
            return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, raw, None

    def settle(self, i, task, raw, error):
        """Record, digest and check one finished task (untimed)."""
        self.attempted += 1
        if error is None:
            try:
                rec = tasks.record(task, raw)
                if self.args.corrupt:
                    rec = tasks.corrupt(rec)
                if i == self.digested and i < self.digest_len:
                    self.digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
                    self.digested += 1
                tasks.check(self.lib, task, rec)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append({"task": i, "kind": task["kind"], "error": error.strip()[-400:]})

    def loop(self, seconds, min_tasks=0):
        """Closed loop from task 0 until the tasks have taken `seconds` in
        total and at least `min_tasks` have run, finishing the round then
        under way so that every class of the schedule is run equally often.
        Returns the per-task durations and the number that completed."""
        durations, completed, timed = [], 0, 0.0
        rounds = gen.round_length(self.args.workload, self.args.tiny)
        # checks run between tasks; this bounds the wall time if they are slow
        wall_limit = time.perf_counter() + 2 * seconds + 30
        while (
            (timed < seconds or len(durations) < min_tasks or len(durations) % rounds)
            and time.perf_counter() < wall_limit
        ):
            i = len(durations)
            task = self.task(i)
            dt, raw, error = self.timed(task)
            durations.append(dt)
            timed += dt
            completed += error is None
            self.settle(i, task, raw, error)
        return durations, completed

    def finish_digest(self):
        """Tasks of the first round that the timed loop did not reach are
        run untimed, so the digest always covers the same outputs."""
        while self.digested < self.digest_len:
            i = self.digested
            task = self.task(i)
            _, raw, error = self.timed(task)
            self.settle(i, task, raw, error)
            if self.digested == i:
                break

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "digest": {"tasks": self.digested, "sha256": self.digest.hexdigest()},
        }


def warm_up(run):
    # one CLI process is enough to load the interpreter and src/ caches
    warm = gen.TINY[run.args.workload]
    for task in warm[:1] if run.args.workload == "cli_oneshot" else warm:
        tasks.run(run.lib, task, run.env)


# task_p90_ms needs at least 10 tasks above it
MIN_TASKS = 100


def untraced(run):
    durations, completed = run.loop(run.args.seconds, 0 if run.args.tiny else MIN_TASKS)
    usage = resource.RUSAGE_CHILDREN if run.args.workload == "cli_oneshot" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(usage).ru_maxrss
    run.finish_digest()
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8]
    return {
        **run.summary(),
        "tasks": len(durations),
        "above_p90": sum(d > p90 for d in durations),
        "timed_s": sum(durations),
        "metrics": {
            "task_p50_ms": statistics.median(durations) * 1000,
            "task_p90_ms": p90 * 1000,
            "tasks_per_s": completed / sum(durations),
            "peak_rss_mb": peak_kb / 1024,
        },
    }


def _import_ms(stderr, module):
    """Cumulative import time of a module in ms, from -X importtime."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1000
    return 0.0


def _cache_counts(fn):
    """(hits, misses) of an lru_cache'd function; (0, 0) for any other."""
    info = getattr(fn, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def _hit_ratio(before, after):
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def traced(run, package, modules):
    clear_caches(modules)
    base, _ = run.loop(run.args.seconds / 3)
    count = len(base)
    run.finish_digest()
    clear_caches(modules)
    cached = {
        "arith.factorize.hit_ratio": getattr(modules["arith"], "factorize", None),
        "distribution.primitive_in_arc.hit_ratio": getattr(modules["distribution"], "_primitive_in_arc", None),
    }
    before = {k: _cache_counts(fn) for k, fn in cached.items()}
    tracer = Tracer(package, modules)
    tracer.install()
    run_task = tracer.wrap("bench", "task", tasks.run)
    cli = run.args.workload == "cli_oneshot"
    samples = {"interp": [], "import": [], "numpy": [], "main": []}
    durations = []
    for i in range(count):
        task = run.task(i)
        tracer.task = i
        error = raw = None
        t0 = time.perf_counter()
        try:
            if cli:
                rc, out, err = tasks.run_cli(task["argv"], run.env, ("-X", "importtime"))
                durations.append(time.perf_counter() - t0)
                samples["import"].append(_import_ms(err, "toruslink"))
                samples["numpy"].append(_import_ms(err, "numpy"))
                err = "\n".join(l for l in err.splitlines() if not l.startswith("import time:"))
                raw = (rc, out, err)
            else:
                tracer.on = True
                try:
                    raw = run_task(run.lib, task, run.env)
                finally:
                    tracer.on = False
                durations.append(time.perf_counter() - t0)
        except Exception:
            durations.append(time.perf_counter() - t0)
            error = traceback.format_exc(limit=3)
        run.settle(i, task, raw, error)
        if cli:
            t0 = time.perf_counter()
            tasks.run_python(["-c", "pass"], run.env)
            samples["interp"].append((time.perf_counter() - t0) * 1000)
            samples["main"].append(_main_in_process(modules["cli"], task["argv"]) * 1000)
            tracer.on = True
            try:
                _main_in_process(modules["cli"], task["argv"])
            finally:
                tracer.on = False
    tracer.uninstall()
    metrics = tracer.metrics(sum(durations))
    for key, fn in cached.items():
        metrics[key] = _hit_ratio(before[key], _cache_counts(fn))
    if cli:
        metrics["cli.interp_ms"] = statistics.median(samples["interp"])
        metrics["cli.import_ms"] = statistics.median(samples["import"])
        metrics["cli.numpy_import_ms"] = statistics.median(samples["numpy"])
        metrics["cli.main_ms"] = statistics.median(samples["main"])
    metrics["trace.overhead_frac"] = sum(durations) / sum(base) - 1
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{run.args.workload}-{run.args.seed}.json")
    return {**run.summary(), "tasks": count, "metrics": metrics}


def _main_in_process(cli, argv):
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main(list(argv))
        except SystemExit:
            pass
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    package, modules = load_library()
    run = Run(args, SimpleNamespace(**modules))
    warm_up(run)
    print("READY", flush=True)
    if args.setup_only:
        return
    result = traced(run, package, modules) if args.trace else untraced(run)
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
