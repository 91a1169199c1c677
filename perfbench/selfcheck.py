"""Self-tests of the benchmark itself, run from the repository root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json declares exactly the metrics run.py and layers.py report.
2. One seed gives identical documents on every build; another seed does not.
3. The checks flag corrupted outputs: a dropped search hit, an altered
   rank, a flipped verdict.
4. Smoke: every workload runs one round untraced, and verbs runs traced,
   each ending with a correct result line.

Exits 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.WORK_DIR, f"selfcheck-{os.getpid()}")
E2E = ("wall_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mib", "ok_ratio")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_declaration() -> None:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workloads")
    expect(tuple(m["name"] for m in bench["end_to_end"]) == E2E, "end_to_end metrics")
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(declared == list(layers.PER_LAYER), "per_layer metrics differ from layers.PER_LAYER")


def _argv_names(rnd) -> list:
    return [[os.path.basename(a) for a in job.argv] for job in rnd.jobs]


def check_determinism() -> None:
    lib = run.load_library()
    for workload in run.WORKLOADS:
        built = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            path = os.path.join(SCRATCH, f"{workload}-{tag}")
            built.append((path, workloads.build_round(lib, workload, seed, 0, path)))
        (pa, ra), (pb, rb), (pc, _) = built
        names = sorted(os.listdir(pa))
        expect(names == sorted(os.listdir(pb)), f"{workload}: document sets differ")
        match, mismatch, errors = filecmp.cmpfiles(pa, pb, names, shallow=False)
        expect(not mismatch and not errors, f"{workload}: same seed, different documents {mismatch}")
        expect(_argv_names(ra) == _argv_names(rb), f"{workload}: same seed, different jobs")
        _, differ, _ = filecmp.cmpfiles(pa, pc, names, shallow=False)
        expect(differ, f"{workload}: another seed gave the same documents")


def _report(lib, job):
    wall, [(_, _, code, out, err, exc)] = run.run_jobs(lib, [job])
    expect(exc is None and code in (0, 1), f"{job.kind}: {exc or err}")
    return json.loads(out), code


def _must_fail(job, report, code, what: str) -> None:
    failures, _ = run.check_results([(job, 0.0, code, json.dumps(report), "", None)])
    expect(bool(failures), f"the {job.kind} check missed {what}")


def check_corruption() -> None:
    lib = run.load_library()
    rnd = workloads.build_round(lib, "verbs", 3, 0, os.path.join(SCRATCH, "corrupt"))
    seen = set()
    for job in rnd.jobs:
        if job.kind in seen or job.kind not in ("search-x", "cyclic-flats", "rank", "weak-compare",
                                                "irreducible", "free-product"):
            continue
        report, code = _report(lib, job)
        expect(not run.check_results([(job, 0.0, code, json.dumps(report), "", None)])[0],
               f"the {job.kind} check rejects a true output")
        bad = copy.deepcopy(report)
        if job.kind == "search-x":
            bad["hits"].pop(3)
            _must_fail(job, bad, code, "a dropped search hit")
        elif job.kind == "cyclic-flats":
            bad["nodes"][-1]["rank"] += 1
            _must_fail(job, bad, code, "an altered flat rank")
        elif job.kind == "rank":
            bad["rank"] += 1
            _must_fail(job, bad, code, "an altered rank")
        elif job.kind == "weak-compare":
            bad["relation"] = "equal" if report["relation"] != "equal" else "M2<=M1"
            _must_fail(job, bad, code, "a wrong relation")
        elif job.kind == "irreducible":
            bad["irreducible"] = not report["irreducible"]
            _must_fail(job, bad, 1 - code, "a flipped verdict")
        elif job.kind == "free-product":
            top = max(bad["cyclic_flats"], key=lambda e: len(e["basis"]))
            top["rank"] += 1
            _must_fail(job, bad, code, "an altered product rank")
        seen.add(job.kind)
    expect(len(seen) == 6, f"corruption cases covered: {sorted(seen)}")


def check_smoke() -> None:
    runs = [(w, "0") for w in run.WORKLOADS] + [("verbs", "1")]
    for workload, trace in runs:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", trace],
            capture_output=True, text=True, timeout=600)
        expect(p.returncode == 0, f"{workload} trace={trace}: exit {p.returncode}: {p.stderr[-500:]}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        expect(result["correct"] and result["failed"] == 0, f"{workload}: {p.stdout[-1500:]}")
        want = E2E if trace == "0" else tuple(m for m, _, _ in layers.PER_LAYER)
        expect(tuple(result["metrics"]) == want, f"{workload} trace={trace}: metric names")


def main() -> int:
    failed = 0
    try:
        for name, fn in (("declaration", check_declaration), ("determinism", check_determinism),
                         ("corruption", check_corruption), ("smoke", check_smoke)):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
