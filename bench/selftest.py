"""Self-test of the benchmark itself, on the small instance ``x1 - 1``.

    python3 bench/selftest.py

It checks that spans nest under their job, that the self times of a traced
pass sum to no more than its wall time, that a corrupted artifact trips the
digest check and counts as a failed job, that the sampled-verification
replay reproduces the documented coverage (6 of 100,000 samples on
``x1*x1 - 1`` at seed 1), that the host clock states a block of reference
loops at its nominal time and hands SIGVTALRM back, that every run prints every metric BENCHMARK.json
names, and that a directory without the package sources gives a non-zero
exit and no result.  It takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def traced_pass(workdir: Path) -> None:
    import workloads as W
    from spans import Recorder, self_times

    jobs = [("reduce[x1-1]", W.reduce_job("x1 - 1")),
            ("witness[x1-1@x1=1]", W.witness_job("x1 - 1", "x1=1"))]
    W.prepare_check(1, workdir, "x1 - 1", "x1=1")
    jobs += W.setup_check(1, workdir, "x1 - 1")
    rec = Recorder(json.loads(run.DIGESTS.read_text()), tracing=True)
    t0 = time.perf_counter()
    for job_id, job in jobs:
        rec.run_job(job_id, job, run.JOB_TIME_LIMIT_S)
    wall = time.perf_counter() - t0
    spans, counts, _ = rec.end_pass()
    check(not rec.failures, f"the x1 - 1 jobs pass their checks {rec.failures}")

    roots = {i: s for i, s in enumerate(spans) if s.layer == "job"}
    check(len(roots) == len(jobs) and all(s.parent is None for s in roots.values()),
          "each job has one root span")
    calls = [s for s in spans if s.layer != "job"]
    check(bool(calls) and all(s.parent in roots and roots[s.parent].job == s.job
                              for s in calls),
          f"all {len(calls)} call spans nest under the span of their own job")
    check(all(s.start >= spans[s.parent].start and s.end <= spans[s.parent].end
              for s in calls), "call spans lie inside their job's interval")
    total = sum(self_times(spans))
    check(0 < total <= wall, f"self times sum to {total:.4f} s <= traced wall {wall:.4f} s")
    unmapped = {s.name for s in calls} - set(run.METRIC_OF_CALL)
    check(not unmapped, f"every call is counted in a time metric (unmapped: {unmapped})")
    values = run.layer_values(spans, counts)
    check(values["gadgets.M_nnz"] == 68_509 and values["factorizations.verify_entries"] == 100_000,
          "counts reach the per-layer metrics")


def corrupted_artifact() -> None:
    import psdrank
    import workloads as W
    from spans import Recorder

    rec = Recorder(json.loads(run.DIGESTS.read_text()))
    original = psdrank.write_matrix
    psdrank.write_matrix = lambda *a, **k: original(*a, **k) + "\n"
    try:
        ok = rec.run_job("reduce[x1-1]", W.reduce_job("x1 - 1"), run.JOB_TIME_LIMIT_S)
    finally:
        psdrank.write_matrix = original
    check(not ok and rec.attempted == 1 and len(rec.failures) == 1
          and "sha256" in rec.failures[0],
          f"a corrupted M trips the digest check and counts as failed: {rec.failures}")


def replay_coverage() -> None:
    import psdrank
    import workloads as W

    M = psdrank.reduce(psdrank.parse_polynomial("x1*x1 - 1")).M
    hits = W.sampled_nonzero_hits(M, 1, 100_000)
    check(hits == 6, f"the splitmix replay finds {hits} of 100000 samples on nonzero "
                     "entries of M(x1*x1 - 1) at seed 1 (expected 6)")


def host_clock() -> None:
    import signal
    from hostclock import REF_LOOP_S, HostClock, ref_loop

    loops = 300
    with HostClock() as clock:
        for _ in range(loops):
            ref_loop()
    ratio = clock.scaled_s / (loops * REF_LOOP_S)
    check(len(clock.samples) > 5 and 0.85 < ratio < 1.15,
          f"{loops} reference loops read {ratio:.3f} of their nominal time "
          f"({len(clock.samples)} speed samples, raw {clock.raw_s:.3f} s)")
    check(signal.getsignal(signal.SIGVTALRM) == signal.SIG_DFL
          and signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0),
          "the host clock restores SIGVTALRM and stops its timer")


def printed_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=run.BENCH_DIR if trace else run.ROOT,
                capture_output=True, text=True, timeout=180)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{workload} --trace {trace} prints a result: {out.stderr[-500:]}")
                continue
            names = [m["name"] for m in spec[section]]
            printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
            check(out.returncode == 0 and result["correct"] and result["failed"] == 0
                  and list(result["metrics"]) == names and set(names) <= printed,
                  f"{workload} --trace {trace}: every {section} metric printed, all jobs pass")


def without_sources(spec: dict) -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        check(out.returncode != 0 and '"correct"' not in out.stdout,
              f"without src/ the run exits {out.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        traced_pass(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    corrupted_artifact()
    replay_coverage()
    host_clock()
    without_sources(spec)
    printed_metrics(spec)
    print("SELFTEST " + ("PASS" if not FAILURES else f"FAIL ({len(FAILURES)})"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
