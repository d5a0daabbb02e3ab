"""psdrank benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload compile --seed 1 --seconds 10 --trace 0

The run imports psdrank from the ``src`` directory next to this one and sets
up: it times the import of psdrank in ``IMPORT_SAMPLES`` fresh interpreters,
the first of which also writes the workload's input files (check only), and
then builds the jobs.  ``setup_s`` is the median import time plus the time
spent writing inputs and building jobs.  It then runs the workload's jobs
back to back, pass after pass, while a pass as long as the last one still
ends within ``--seconds`` (at least ``MIN_PASSES`` passes).  ``ref_wall_s``
is the median pass time.
Both are timed with `hostclock.HostClock`: wall time scaled to a reference
host speed, measured by a fixed loop that runs after every 20 ms of CPU
time while the timed code runs, because the shared host's own speed drifts
by more than the bounds.  The raw wall times are printed next to them.
Every job checks its outputs against hand-written known answers and against
the artifact digests recorded at the seed commit (``digests.json``).

With ``--trace 1`` the run alternates untraced and traced passes.  Traced
passes (raw wall time, no speed samples) record a span around every call
into psdrank; the per-layer metrics
are derived from those spans (self time summed per layer function) and from
the counts the jobs report, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  ``--workload all`` runs every workload,
each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from hostclock import HostClock
from spans import Recorder, Span, self_times, span_dicts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

IMPORT_SAMPLES = 7
MIN_PASSES = 2
JOB_TIME_LIMIT_S = 60.0
# Start no pass, and let no job run, past this point: the run has to end
# within 180 s even when the package hangs.
RUN_DEADLINE_S = 150.0

LAYERS = ("gadgets", "matrices", "certificates", "factorizations",
          "formulas", "cube", "polynomials", "search")

# Per-layer time metrics: the self time of the calls to these functions.
TIME_METRICS = {
    "gadgets.reduce_s": ("reduce",),
    "matrices.write_s": ("write_matrix",),
    "matrices.parse_s": ("parse_matrix",),
    "certificates.completion_s": ("completion_from_root",),
    "certificates.assemble_s": ("assemble_instance_witness",),
    "certificates.extract_s": ("extract_root",),
    "certificates.sqrt_check_s": ("sqrt_condition_check",),
    "factorizations.write_s": ("write_factorization",),
    "factorizations.parse_s": ("parse_factorization",),
    "factorizations.verify_s": ("verify_factorization",),
    "formulas.normalize_s": ("parse_formula", "normalize_atoms", "to_equation_system",
                             "flatten", "to_single_polynomial"),
    "formulas.lift_s": ("lift_witness",),
    "cube.build_phi_s": ("build_phi",),
    "cube.residual_s": ("scale_root", "phi_residual"),
    "polynomials.parse_s": ("parse_polynomial",),
    "polynomials.evaluate_s": ("evaluate",),
    "polynomials.format_s": ("format_polynomial",),
    "search.search_s": ("psd_rank_search",),
}
METRIC_OF_CALL = {name: metric for metric, names in TIME_METRICS.items() for name in names}

COUNT_METRICS = ("gadgets.M_nnz", "matrices.write_bytes", "matrices.parse_bytes",
                 "certificates.witness_vectors", "factorizations.write_bytes",
                 "factorizations.parse_bytes", "factorizations.verify_entries",
                 "formulas.equations", "formulas.terms_out", "cube.phi_terms",
                 "search.gd_iterations")

# Ratio metrics: numerator count, denominator count.
RATIO_METRICS = {
    "certificates.vectors_per_r": ("certificates.witness_vectors", "certificates.witness_r"),
    "factorizations.verify_nonzero_frac": ("factorizations.verify_nonzero",
                                           "factorizations.verify_samples"),
}


# Run in a fresh interpreter: time the import of psdrank, then write the
# workload's input files if it names one; print the times (raw and at the
# reference speed) and the peak RSS.
SETUP_CHILD = """
import json, resource, sys
from pathlib import Path
src, bench, workload, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, bench]
from hostclock import HostClock
with HostClock() as imported:
    import psdrank
with HostClock() as prepared:
    if workload:
        import workloads
        workloads.PREPARE[workload](int(seed), Path(workdir))
print(json.dumps({"import_s": imported.scaled_s, "import_raw_s": imported.raw_s,
                  "prepare_s": prepared.scaled_s, "prepare_raw_s": prepared.raw_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> None:
    """Import psdrank and the workloads from ``src``."""
    if not (SRC / "psdrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no psdrank package under {SRC}")
    sys.path.insert(0, str(SRC))
    import psdrank
    import workloads  # noqa: F401  (imports psdrank's public API)
    if Path(psdrank.__file__).resolve().parent != SRC / "psdrank":
        raise SystemExit(f"error: psdrank was imported from {psdrank.__file__}, not {SRC}")


def set_up(workload: str, seed: int, workdir: Path) -> dict:
    """Time ``IMPORT_SAMPLES`` imports of psdrank in fresh interpreters; the
    first also writes the workload's input files into ``workdir``."""
    import workloads
    samples = []
    for i in range(IMPORT_SAMPLES):
        prepare = workload if i == 0 and workload in workloads.PREPARE else ""
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR),
                              prepare, str(seed), str(workdir)],
                             capture_output=True, text=True, timeout=RUN_DEADLINE_S)
        if out.returncode:
            raise SystemExit(f"error: setting up {workload} failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout))
    return {"import_s": [s["import_s"] for s in samples],
            "import_raw_s": [s["import_raw_s"] for s in samples],
            "prepare_s": samples[0]["prepare_s"],
            "prepare_raw_s": samples[0]["prepare_raw_s"],
            "prepare_peak_rss_mb": samples[0]["peak_rss_mb"]}


def layer_values(spans: List[Span], counts: Counter, job: Optional[str] = None) -> Dict[str, float]:
    """Per-layer metrics of one pass, or of one job of it."""
    values: Dict[str, float] = defaultdict(float)
    values.update({m: 0.0 for m in TIME_METRICS})
    values.update({f"{layer}.calls": 0 for layer in LAYERS})
    for span, own in zip(spans, self_times(spans)):
        if job is not None and span.job != job:
            continue
        if span.layer == "job":
            values["bench.glue_s"] += own
            continue
        values[f"{span.layer}.calls"] += 1
        # A call no metric names still shows, under its own name.
        metric = METRIC_OF_CALL.get(span.name, f"{span.layer}.{span.name}_s")
        values[metric] += own
        values[f"{metric}.calls"] += 1
    totals: Counter = Counter()
    for (owner, metric), n in counts.items():
        if job is None or owner == job:
            totals[metric] += n
    for metric in COUNT_METRICS:
        values[metric] = totals[metric]
    for metric, (num, den) in RATIO_METRICS.items():
        values[metric] = totals[num] / totals[den] if totals[den] else 0.0
        values[f"{metric}.base"] = totals[den]
    return dict(values)


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}


def run_workload(args, spec, started: float) -> int:
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup = set_up(args.workload, args.seed, workdir)
        with HostClock() as built:
            jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup["jobs_s"] = built.scaled_s
        rec = Recorder(json.loads(DIGESTS.read_text()))
        walls = {False: [], True: []}  # raw wall time of each pass, by traced
        scaled = []  # untraced passes at the reference speed
        speeds = []  # mean ref_loop time in each untraced pass
        traced_passes = []
        pass_bytes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            rec.tracing = traced
            t0 = time.perf_counter()
            if traced:
                run_pass(rec, jobs, started)
                walls[True].append(time.perf_counter() - t0)
            else:
                with HostClock() as clock:
                    run_pass(rec, jobs, started)
                walls[False].append(clock.raw_s)
                scaled.append(clock.scaled_s)
                speeds.append(clock.speed_s())
            now = time.perf_counter()
            spans, counts, nbytes = rec.end_pass()
            pass_bytes.append(nbytes)
            if traced:
                traced_passes.append((spans, counts))
            # Start a pass only if one as long as the last still ends inside the
            # window, and never past the deadline.  An untraced run makes at
            # least MIN_PASSES passes, so that a slow first pass cannot be a
            # run's only sample; a traced run makes at least one of each kind.
            if args.trace:
                short = not walls[True]
            else:
                short = len(walls[False]) < MIN_PASSES
            if ((now - start + (now - t0) > args.seconds and not short)
                    or now - started + (now - t0) > RUN_DEADLINE_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(rec.failures)
    for line in rec.failures:
        print(f"FAILED {line}")
    print(f"workload={args.workload} seed={args.seed} passes={len(walls[False])}"
          f"+{len(walls[True])} traced jobs={len(jobs)}")
    print(f"fail_frac={failed}/{rec.attempted}")
    e2e = {
        "ref_wall_s": statistics.median(scaled),
        "setup_s": (statistics.median(setup["import_s"]) + setup["prepare_s"]
                    + setup["jobs_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": statistics.median(pass_bytes),
        "ok_frac": (rec.attempted - failed) / rec.attempted,
    }
    print("pass_ref_wall_s=" + " ".join(f"{w:.4f}" for w in scaled))
    print("pass_raw_wall_s=" + " ".join(f"{w:.4f}" for w in walls[False])
          + f" (median {statistics.median(walls[False]):.4f})")
    print("pass_ref_loop_ms=" + " ".join(f"{1e3 * s:.4f}" for s in speeds))
    print("setup_s: import=" + " ".join(f"{t:.4f}" for t in setup["import_s"])
          + f" prepare={setup['prepare_s']:.4f} jobs={setup['jobs_s']:.4f}"
          f" (raw: import median {statistics.median(setup['import_raw_s']):.4f}"
          f" prepare {setup['prepare_raw_s']:.4f};"
          f" prepare peak_rss_mb={setup['prepare_peak_rss_mb']:.1f}, in its own process)")
    values = dict(e2e)
    if args.trace:
        layer = median_of([layer_values(s, c) for s, c in traced_passes])
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        values.update(layer)
        print_layer_table(args.workload, jobs, traced_passes, layer)
        write_trace(args, traced_passes)

    section = "per_layer" if args.trace else "end_to_end"
    for name in ("end_to_end", "per_layer"):
        for m in spec[name]:
            if m["name"] in values:
                print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_pass(rec: Recorder, jobs, started: float) -> None:
    """Run every job once; no job may run past the run's deadline."""
    for job_id, job in jobs:
        limit = min(JOB_TIME_LIMIT_S, RUN_DEADLINE_S - (time.perf_counter() - started))
        rec.run_job(job_id, job, limit)


def print_layer_table(workload, jobs, traced_passes, layer) -> None:
    """Per-layer time metrics with their call counts (ratios with their
    base), for the workload and for each job; medians over traced passes."""
    def timed(row):
        return [m for m in sorted(row) if row.get(f"{m}.calls")]

    for metric in timed(layer):
        print(f"layer {metric}={layer[metric]:.6g} calls={layer[metric + '.calls']:g} "
              f"workload={workload}")
    for metric in RATIO_METRICS:
        if layer[f"{metric}.base"]:
            print(f"layer {metric}={layer[metric]:.6g} base={layer[metric + '.base']:g} "
                  f"workload={workload}")
    for job_id, _ in jobs:
        row = median_of([layer_values(s, c, job_id) for s, c in traced_passes])
        parts = [f"{m}={row[m]:.4g}/{row[m + '.calls']:g}calls" for m in timed(row)]
        parts += [f"{m}={row[m]:.4g}" for m in COUNT_METRICS if row[m]]
        print(f"job {job_id} bench.glue_s={row.get('bench.glue_s', 0.0):.4g} " + " ".join(parts))


def write_trace(args, traced_passes) -> None:
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as out:
        for number, (spans, _) in enumerate(traced_passes):
            for d in span_dicts(spans):
                out.write(json.dumps({**d, "pass": number}) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import workloads
    if args.workload == "all":
        # Each workload in a fresh process of its own, as the load model says.
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args, spec, started)


if __name__ == "__main__":
    sys.exit(main())
