"""Benchmark runner for the qmatroids command line, run in process.

Usage, from the root of a checkout that holds ``src/qmatroids``:

    python3 perfbench/run.py --workload search|sweep|verbs --seed N \
        --seconds S --trace 0|1

One client in one process sends jobs in a closed loop, one
``qmatroids.cli.main(argv)`` call at a time, always with ``workers=1``.
Jobs come in rounds of freshly generated documents (see workloads.py).
Each round is: set up (import the library afresh, build fields, write
the documents), run the jobs (timed), check every output (untimed).
Rounds repeat until the job time reaches ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones of
the traced rounds (see layers.py) plus the tracing overhead.  The lines
before it report the run record and the traffic.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from collections import namedtuple
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.ROUND_MAKERS)
MIN_SETUPS = 4
# verbs keeps at least 300 calls of its own (44 a round) on a slow machine.
MIN_ROUNDS = {"verbs": 7}
Done = namedtuple("Done", "kind q probe latency seconds summary")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def load_library():
    """Import qmatroids afresh, so every round pays (and times) the import."""
    for name in [n for n in sys.modules if n == "qmatroids" or n.startswith("qmatroids.")]:
        del sys.modules[name]
    package = importlib.import_module("qmatroids")
    mods = {layer: importlib.import_module(f"qmatroids.{layer}") for layer in layers.LAYERS}
    return SimpleNamespace(package=package, **mods)


def setup_round(workload: str, seed: int, r: int, path: str):
    t0 = time.perf_counter()
    lib = load_library()
    rnd = workloads.build_round(lib, workload, seed, r, path)
    return lib, rnd, time.perf_counter() - t0


def run_jobs(lib, jobs):
    """Send the jobs one after another; returns (wall seconds, results)."""
    results = []
    gc.collect()  # so set-up garbage is not collected inside the timed jobs
    start = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(job.argv + ["--format", "json"])
        except (Exception, SystemExit) as e:  # a crash is a failed job, not a failed run
            code, exc = None, f"{type(e).__name__}: {e}"
        results.append((job, time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), exc))
    return time.perf_counter() - start, results


def check_results(results):
    """Check every output of a round.

    Returns the failure messages, one per failed job (a crash, exit 2 or
    3, or a failed check), and a Done record per job, whose summary keeps
    the search counts for the traffic report.  Reports and documents are
    dropped, so memory does not grow with rounds.
    """
    failures, kept = [], []
    for job, dt, code, out, err, exc in results:
        what = " ".join(os.path.basename(a) for a in job.argv)
        summary = None
        if exc is not None:
            failures.append(f"{what}: {exc}")
        elif code not in (0, 1):
            failures.append(f"{what}: exit {code}: {err.strip()[:200]}")
        else:
            try:
                report = json.loads(out)
                job.check(report, code)
                if job.kind == "search-x":
                    summary = (report["searched"], report["count"])
            except workloads.CheckFailed as e:
                failures.append(f"{what}: check failed: {e}")
            except Exception:  # a malformed report; keep checking the others
                failures.append(f"{what}: check crashed: {traceback.format_exc(limit=2)}")
        kept.append(Done(job.kind, job.q, job.probe, job.latency, dt, summary))
    return failures, kept


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, root: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(root), "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(), "python": platform.python_version(), "workers": 1,
    }


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traffic_lines(workload: str, results, rounds) -> list:
    own = [(d.kind, d.q, d.seconds, d.summary) for d in results if not d.probe]
    lines = [f"jobs: {len(results)} ({len(own)} workload, {len(results) - len(own)} probe), "
             f"rounds: {len(rounds)}"]
    if workload == "search":
        searched = hits = 0
        for _, _, _, summary in own:
            if summary is not None:
                searched += summary[0]
                hits += summary[1]
        lines.append(f"search: {searched} candidates, {hits} hits, "
                     f"hit ratio {hits / max(searched, 1):.4f}")
    elif workload == "sweep":
        per_q = Counter()
        for _, q, dt, _ in own:
            per_q[q] += dt
        total = sum(per_q.values()) or 1.0
        sizes = Counter()
        for traffic in rounds:
            sizes.update(traffic)
        lines.append("sweep: " + ", ".join(
            f"q={q}: {sizes[f'q{q}.subspaces']} subspaces, {sizes[f'q{q}.flats']} cyclic flats, "
            f"time share {per_q[q] / total:.3f}" for q in sorted(per_q)))
    else:
        mix = Counter(kind for kind, _, _, _ in own)
        q3 = sum(1 for _, q, _, _ in own if q != 2)
        q3_time = sum(dt for _, q, dt, _ in own if q != 2)
        total = sum(dt for _, _, dt, _ in own) or 1.0
        lines.append(f"verbs: {len(own)} jobs, odd-q job share {q3 / max(len(own), 1):.3f}, "
                     f"odd-q time share {q3_time / total:.3f}")
        lines.append("verb mix: " + json.dumps(dict(sorted(mix.items()))))
    return lines


def run(args, root: str) -> tuple[dict, list]:
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = layers.Tracer() if args.trace else None
    setups, walls, traced_walls = [], [], []
    all_results, rounds, jobs_per_round, failures = [], [], [], []
    measured = 0.0
    r = 0
    try:
        while True:
            traced = tracer is not None and r % 2 == 1
            lib, rnd, setup_s = setup_round(args.workload, args.seed, r, os.path.join(work, f"r{r}"))
            setups.append(setup_s)
            if traced:
                tracer.install(lib)
            try:
                wall, results = run_jobs(lib, rnd.jobs)
            finally:
                if traced:
                    tracer.uninstall()
            round_failures, kept = check_results(results)
            failures += round_failures
            (traced_walls if traced else walls).append(wall)
            if not traced:
                all_results += kept
            rounds.append(rnd.traffic)
            jobs_per_round.append(len(rnd.jobs))
            measured += wall
            r += 1
            need_more = (tracer is not None and not (walls and traced_walls)
                         or r < MIN_ROUNDS.get(args.workload, 1))
            if not need_more and measured + statistics.median(walls + traced_walls) > args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(setup_round(args.workload, args.seed, r, os.path.join(work, f"r{r}"))[2])
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(jobs_per_round)
    latencies = sorted(d.seconds * 1e3 for d in all_results if d.latency)
    lines = traffic_lines(args.workload, all_results, rounds)
    lines.append(f"latency samples: {len(latencies)} jobs, "
                 f"{len(latencies) - int(len(latencies) * 0.9)} beyond p90")
    lines.append("round walls (s): " + json.dumps([round(w, 4) for w in walls]))
    lines.append("setups (s): " + json.dumps([round(x, 4) for x in setups]))
    lines.append(f"fail_ratio: {len(failures) / max(attempted, 1):.6f} "
                 f"({len(failures)} of {attempted} jobs)")
    if tracer is not None:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracer.metrics(len(traced_walls), overhead)
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans = os.path.join(root, OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        lines.append(f"spans: {len(tracer.spans)} kept, {tracer.dropped} folded only, in {spans}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": _quantile(latencies, 50), "unit": "ms"},
            "job_p90_ms": {"value": _quantile(latencies, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
            "ok_ratio": {"value": 1.0 - len(failures) / max(attempted, 1), "unit": "ratio"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines + [f"failure: {f}" for f in failures[:20]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qmatroids", "cli.py")):
        print(f"perfbench: no qmatroids sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    record = run_record(args, root)
    result, lines = run(args, root)
    record["result"] = result
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
