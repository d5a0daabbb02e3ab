"""The benchmark's workloads: inputs, jobs and known answers.

Each workload's ``setup(seed, workdir)`` builds its inputs and returns its
jobs, a list of ``(job_id, job)`` pairs; a workload named in ``PREPARE``
has its input files written into ``workdir`` first.  A job takes a `spans.Recorder`,
makes its calls into psdrank through ``rec.call`` in the order the matching
``psdrank`` CLI subcommand makes them, reports what it serialized through
``rec.artifact`` and raises `spans.JobFailure` when an output misses its
known answer.  The known answers below were measured at the seed commit and
are written out by hand; none is read back from the package.

Import this module only after ``src`` is on ``sys.path``: it imports psdrank.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import psdrank as P

from spans import JobFailure, Recorder

Job = Callable[[Recorder], None]
Jobs = List[Tuple[str, Job]]

# |sigma|, |H|, k, dimension, nnz, K of M(B, K) for each compile rung.
REDUCE_ANSWERS = {
    "x1 - 1": (7, 127, 9_492, 19_111, 68_509, 144),
    "x1*x1 - 1": (9, 217, 35_940, 72_097, 254_881, 144),
    "x1*x2 - x1": (9, 217, 39_048, 78_313, 275_653, 144),
}

# Size 2k+3 of the assembled witness for each certify instance.  The
# integer root does almost no sum-of-squares work; on the fractional root,
# four-square expansions take about 40% of assembly at the seed commit.
WITNESS_SIZES = {
    ("x1 - 1", "x1=1"): 18_987,
    ("x1 - x2", "x1=19/23,x2=19/23"): 78_099,
}

CHECK_POLY, CHECK_ROOT = "x1*x1 - 1", "x1=1"
EXTRACT_CASES = (("x1*x1 - 1", "x1=1"), ("x1*x2 - x1", "x1=1,x2=1"))
VERIFY_SAMPLES = 100_000

FORMULAS_PER_PASS = 60
FIXED_FORMULAS = (("(x1 > 0) & (x2*x2 <= 3)", "x1=1,x2=1"), ("x1 > 0", "x1=1"))
PHI_ROOTS = (("x1 - 1", "x1=1"), ("x1*x1 - 1", "x1=1"), ("x1*x2 - x1", "x1=1,x2=1"),
             ("x1 - x2", "x1=19/23,x2=19/23"))
TOWER_HEIGHTS = (1, 2, 3, 4)
SEARCH_RESTARTS = 32


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise JobFailure(message)


def parse_root(text: str) -> Dict[str, Fraction]:
    """``"x1=1,x2=19/23"`` -> ``{"x1": 1, "x2": 19/23}``."""
    return {name.strip(): Fraction(value) for name, value in
            (part.split("=") for part in text.split(","))}


def assignment(root: Dict[str, Fraction]) -> P.Assignment:
    return P.Assignment.exact({P.var(name): value for name, value in root.items()})


def compact(text: str) -> str:
    return text.replace(" ", "")


# ---------------------------------------------------------------------------
# compile: psdrank reduce on the ladder
# ---------------------------------------------------------------------------

def reduce_job(text: str) -> Job:
    def job(rec: Recorder) -> None:
        f = rec.call(P.parse_polynomial, text)
        out = rec.call(P.reduce, f)
        data = rec.artifact(f"M[{compact(text)}]",
                            rec.call(P.write_matrix, out.M, target_rank=out.r))
        rec.artifact(f"reduce.stdout[{compact(text)}]",
                     f"r={out.r}\nk={out.k}\nK={out.K}\ndimension={out.M.nrows}\n")
        trace = dict(kv.split("=") for kv in out.trace)
        nnz = sum(1 for v in out.M.data.values() if v != 0)
        got = (int(trace["sigma"]), out.B.nrows, out.k, out.M.nrows, nnz, out.K)
        expect(got == REDUCE_ANSWERS[text],
               f"|sigma|,|H|,k,dim,nnz,K = {got}, expected {REDUCE_ANSWERS[text]}")
        expect(out.r == 2 * out.k + 3, f"r = {out.r} is not 2k+3 for k = {out.k}")
        rec.count("gadgets.M_nnz", nnz)
        rec.count("matrices.write_bytes", len(data))
    return job


def setup_compile(seed: int, workdir: Path) -> Jobs:
    return [(f"reduce[{compact(t)}]", reduce_job(t)) for t in REDUCE_ANSWERS]


# ---------------------------------------------------------------------------
# certify: psdrank witness
# ---------------------------------------------------------------------------

def witness_job(text: str, root_text: str) -> Job:
    xi = assignment(parse_root(root_text))
    name = f"{compact(text)}@{root_text}"

    def job(rec: Recorder) -> None:
        f = rec.call(P.parse_polynomial, text)
        comp = rec.call(P.completion_from_root, f, xi)
        bprime = rec.artifact(f"bprime.mtx[{name}]", rec.call(P.write_matrix, comp.matrix))
        cfac = rec.artifact(f"completion.fac[{name}]",
                            rec.call(P.write_factorization, comp.factorization))
        F = rec.call(P.assemble_instance_witness, f, xi)
        ifac = rec.artifact(f"instance.fac[{name}]", rec.call(P.write_factorization, F))
        rec.artifact(f"witness.stdout[{name}]", f"witness_size={F.k}\n")
        expected = WITNESS_SIZES[(text, root_text)]
        expect(F.k == expected, f"witness size {F.k}, expected {expected}")
        vectors = (sum(len(v) for v in F.row_vectors.values())
                   + sum(len(v) for v in F.col_vectors.values()))
        rec.count("certificates.witness_vectors", vectors)
        rec.count("certificates.witness_r", F.k)
        rec.count("matrices.write_bytes", len(bprime))
        rec.count("factorizations.write_bytes", len(cfac) + len(ifac))
    return job


def setup_certify(seed: int, workdir: Path) -> Jobs:
    return [(f"witness[{compact(t)}@{r}]", witness_job(t, r)) for t, r in WITNESS_SIZES]


# ---------------------------------------------------------------------------
# check: psdrank verify, sqrt-check and extract-root on files from setup
# ---------------------------------------------------------------------------

def splitmix64(seed: int):
    """The sampling stream as documented in the README, written out here so
    the benchmark measures verification coverage from outside the package."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def sampled_nonzero_hits(M: P.InstanceMatrix, seed: int, samples: int) -> int:
    """Replay the sampled-verification stream against M's support and count
    the samples that land on a nonzero entry of M."""
    row = {label: i for i, label in enumerate(M.row_labels)}
    col = {label: j for j, label in enumerate(M.col_labels)}
    nr, nc = len(M.row_labels), len(M.col_labels)
    support = {row[r] * nc + col[c] for (r, c), v in M.data.items() if v != 0}
    gen = splitmix64(seed)
    hits = 0
    for _ in range(samples):
        i = next(gen) % nr
        j = next(gen) % nc
        hits += (i * nc + j) in support
    return hits


def read_input(rec: Recorder, path: Path, metric: str) -> str:
    data = path.read_bytes()
    rec.count(metric, len(data))
    return data.decode("utf-8")


def verify_job(workdir: Path, seed: int, nonzero_hits: int) -> Job:
    def job(rec: Recorder) -> None:
        mtext = read_input(rec, workdir / "instance.mtx", "matrices.parse_bytes")
        ftext = read_input(rec, workdir / "instance.fac", "factorizations.parse_bytes")
        A = rec.call(P.parse_matrix, mtext).instance
        F = rec.call(P.parse_factorization, ftext)
        report = rec.call(P.verify_factorization, A, F, mode="sampled", seed=seed,
                          samples=VERIFY_SAMPLES)
        rec.artifact("verify.stdout", report.summary() + "\n", pinned=False)
        expect(report.passed and report.max_residual == 0,
               f"sampled verification failed: {report.summary()}")
        expect(report.entries_checked == VERIFY_SAMPLES,
               f"{report.entries_checked} entries checked, the stream has {VERIFY_SAMPLES}")
        rec.count("factorizations.verify_entries", report.entries_checked)
        rec.count("factorizations.verify_samples", VERIFY_SAMPLES)
        rec.count("factorizations.verify_nonzero", nonzero_hits)
    return job


def sqrt_check_job(workdir: Path, text: str) -> Job:
    def job(rec: Recorder) -> None:
        data = read_input(rec, workdir / "B.mtx", "matrices.parse_bytes")
        S = rec.call(P.parse_matrix, data).incomplete
        ok, witness = rec.call(P.sqrt_condition_check, S)
        expect(ok and witness is not None, "the sqrt condition does not hold for B")
        lines = [f"column {c} rows {i1} {i2} cols {j1} {j2}"
                 for c, (i1, i2, j1, j2) in witness.columns.items()]
        rec.artifact(f"sqrt-check.stdout[{compact(text)}]",
                     "\n".join(["sqrt_condition=true"] + lines) + "\n")
    return job


def extract_job(workdir: Path, index: int, text: str, root_text: str) -> Job:
    root = parse_root(root_text)

    def job(rec: Recorder) -> None:
        f = rec.call(P.parse_polynomial, text)
        ftext = read_input(rec, workdir / f"completion{index}.fac", "factorizations.parse_bytes")
        F = rec.call(P.parse_factorization, ftext)
        y = rec.call(P.extract_root, f, F)
        got = {str(v): y.values[v] for v in y.values}
        for name, value in root.items():
            expect(name in got and abs(float(Fraction(got[name]) - value)) <= 1e-9,
                   f"extracted {got}, expected {root_text}")
        rec.artifact(f"extract-root.stdout[{compact(text)}]",
                     "".join(f"{v}={y.values[v]}\n" for v in sorted(y.values)))
    return job


def prepare_check(seed: int, workdir: Path, text: str = CHECK_POLY,
                  root_text: str = CHECK_ROOT) -> None:
    """Write the check workload's input files into ``workdir``: M and B of
    ``text``, its instance witness, the completions of ``EXTRACT_CASES``
    and the replayed coverage count.  run.py calls this in a child process,
    so that the run's ``ru_maxrss`` covers only the read side."""
    f = P.parse_polynomial(text)
    out = P.reduce(f)
    (workdir / "instance.mtx").write_text(P.write_matrix(out.M, target_rank=out.r))
    (workdir / "B.mtx").write_text(P.write_matrix(out.B))
    F = P.assemble_instance_witness(f, assignment(parse_root(root_text)))
    (workdir / "instance.fac").write_text(P.write_factorization(F))
    for index, (etext, eroot) in enumerate(EXTRACT_CASES):
        comp = P.completion_from_root(P.parse_polynomial(etext), assignment(parse_root(eroot)))
        (workdir / f"completion{index}.fac").write_text(P.write_factorization(comp.factorization))
    hits = sampled_nonzero_hits(out.M, seed, VERIFY_SAMPLES)
    (workdir / "replay.json").write_text(json.dumps({"nonzero_hits": hits}))


def setup_check(seed: int, workdir: Path, text: str = CHECK_POLY) -> Jobs:
    """The check jobs over the files `prepare_check` wrote for ``text``."""
    hits = json.loads((workdir / "replay.json").read_text())["nonzero_hits"]
    jobs = [(f"verify[{compact(text)}]", verify_job(workdir, seed, hits)),
            (f"sqrt-check[{compact(text)}]", sqrt_check_job(workdir, text))]
    jobs += [(f"extract-root[{compact(etext)}]", extract_job(workdir, index, etext, eroot))
             for index, (etext, eroot) in enumerate(EXTRACT_CASES)]
    return jobs


# ---------------------------------------------------------------------------
# small_jobs: normalize, bound and search at sub-second sizes
# ---------------------------------------------------------------------------

# Formula structure (term counts and degrees, relations, connectives and
# inner negations) is fixed by the formula's index; the seed picks the
# satisfying point, the variables and the signs.  Output sizes then vary
# little from seed to seed, so output_bytes stays comparable across seeds.

def _random_term(shape: random.Random, rng: random.Random,
                 max_degree: int) -> Tuple[int, Tuple[int, ...]]:
    degree = shape.randint(0, max_degree)
    return rng.choice((1, -1)), tuple(rng.randint(1, 2) for _ in range(degree))


def _term_text(term: Tuple[int, Tuple[int, ...]], first: bool) -> str:
    sign, vars_ = term
    body = "*".join(f"x{i}" for i in vars_) or "1"
    if first:
        return body if sign > 0 else f"-{body}"
    return f" + {body}" if sign > 0 else f" - {body}"


def _term_value(term: Tuple[int, Tuple[int, ...]], point: Dict[int, Fraction]) -> Fraction:
    value = Fraction(term[0])
    for i in term[1]:
        value *= point[i]
    return value


_RELATIONS = {">": lambda v: v > 0, ">=": lambda v: v >= 0, "=": lambda v: v == 0,
              "!=": lambda v: v != 0, "<": lambda v: v < 0, "<=": lambda v: v <= 0}


def _random_atom(shape: random.Random, rng: random.Random,
                 point: Dict[int, Fraction]) -> Tuple[str, bool]:
    lhs = [_random_term(shape, rng, 2) for _ in range(shape.randint(1, 2))]
    rhs = _random_term(shape, rng, 1)
    rel = shape.choice(sorted(_RELATIONS))
    text = "".join(_term_text(t, i == 0) for i, t in enumerate(lhs))
    text += f" {rel} {_term_text(rhs, True)}"
    value = sum(_term_value(t, point) for t in lhs) - _term_value(rhs, point)
    return text, _RELATIONS[rel](value)


def _random_tree(shape: random.Random, rng: random.Random, atoms: int,
                 point: Dict[int, Fraction]) -> Tuple[str, bool]:
    if atoms == 1:
        return _random_atom(shape, rng, point)
    cut = shape.randint(1, atoms - 1)
    left, lt = _random_tree(shape, rng, cut, point)
    right, rt = _random_tree(shape, rng, atoms - cut, point)
    if shape.random() < 0.5:
        text, truth = f"({left}) & ({right})", lt and rt
    else:
        text, truth = f"({left}) | ({right})", lt or rt
    if shape.random() < 0.3:
        return f"!({text})", not truth
    return text, truth


def random_formulas(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` formulas over x1, x2 with 1 to 3 atoms, each paired with a
    point that satisfies it (checked here with exact rationals)."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        shape = random.Random(index)
        point = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in (1, 2)}
        text, truth = _random_tree(shape, rng, 1 + index % 3, point)
        if not truth:
            text = f"!({text})"
        out.append((text, ",".join(f"x{i}={v}" for i, v in point.items())))
    return out


def formula_job(name: str, text: str, root_text: str, pinned: bool) -> Job:
    point = assignment(parse_root(root_text))

    def job(rec: Recorder) -> None:
        phi = rec.call(P.parse_formula, text)
        system = rec.call(P.flatten, rec.call(P.to_equation_system,
                                              rec.call(P.normalize_atoms, phi)))
        poly = rec.call(P.to_single_polynomial, system)
        rec.artifact(f"single.poly[{name}]", rec.call(P.format_polynomial, poly) + "\n", pinned)
        w = rec.call(P.lift_witness, phi, point)
        value = rec.call(P.evaluate, poly, w)
        expect(value == 0 if w.mode == "exact" else abs(value) <= 1e-12,
               f"lifted witness of {text!r} at {root_text} leaves {value} ({w.mode})")
        rec.count("formulas.equations", len(system.equations))
        rec.count("formulas.terms_out", len(poly.terms))
    return job


def phi_job(text: str, root_text: str, m: int) -> Job:
    xi = assignment(parse_root(root_text))

    def job(rec: Recorder) -> None:
        f = rec.call(P.parse_polynomial, text)
        inst = rec.call(P.build_phi, f, m)
        rec.artifact(f"phi.poly[{compact(text)},m={m}]",
                     rec.call(P.format_polynomial, inst.phi) + "\n")
        scaled = rec.call(P.scale_root, xi, m)
        residual = rec.call(P.phi_residual, inst, xi)
        value = rec.call(P.evaluate, inst.phi, scaled)
        expect(residual == 0, f"phi residual {residual} at the scaled root")
        expect(abs(value) <= 1e-12, f"phi evaluates to {value} at the scaled root")
        rec.count("cube.phi_terms", len(inst.phi.terms))
    return job


def search_job(name: str, A: P.InstanceMatrix, k: int, rank: int) -> Job:
    def job(rec: Recorder) -> None:
        report = rec.call(P.psd_rank_search, A, k,
                          P.SearchConfig(restarts=SEARCH_RESTARTS, seed=1))
        rec.artifact(f"search.stdout[{name},k={k}]", report.summary() + "\n", pinned=False)
        if k < rank:
            expect(not report.found, f"found a size-{k} witness for {name} of rank {rank}")
            expect(k > 1 or report.exact, f"the size-1 refusal for {name} is not exact")
        else:
            expect(report.found, f"no size-{k} witness for {name}: {report.summary()}")
        rec.count("search.gd_iterations", report.iterations)
    return job


def setup_small_jobs(seed: int, workdir: Path) -> Jobs:
    jobs = [(f"formula[{i}]", formula_job(str(i), text, root, pinned=False))
            for i, (text, root) in enumerate(random_formulas(seed, FORMULAS_PER_PASS))]
    jobs += [(f"formula[{compact(text)}]", formula_job(compact(text), text, root, pinned=True))
             for text, root in FIXED_FORMULAS]
    jobs += [(f"bound[{compact(text)},m={m}]", phi_job(text, root, m))
             for text, root in PHI_ROOTS for m in TOWER_HEIGHTS]
    cases = (("I3", P.InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3),
             ("G", P.build_G([[1]], [1], [1], 1), 3),
             ("I2", P.InstanceMatrix.from_dense([[1, 0], [0, 1]]), 2),
             ("P(2)", P.build_P(2), 2))
    jobs += [(f"search[{name},k={k}]", search_job(name, A, k, rank))
             for name, A, rank in cases for k in (rank - 1, rank)]
    return jobs


WORKLOADS = {
    "compile": setup_compile,
    "certify": setup_certify,
    "check": setup_check,
    "small_jobs": setup_small_jobs,
}

# Workloads whose input files are written before setup, in a child process.
PREPARE = {"check": prepare_check}
