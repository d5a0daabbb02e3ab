"""Batch command-line driver for the reduction pipeline and certificates.

Subcommands map one-to-one onto library operations; all randomness derives
from explicit seeds, output files are byte-identical across runs for
identical inputs and flags, and stage traces go to stderr as line-oriented
key=value records (they carry wall times and so are not byte-stable).
Exit codes: 0 success, 1 verification/extraction/search failure, 2 usage or
parse errors.  Machine-readable error codes are emitted on stderr as
``error code=<token> msg="..."``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional

from . import certificates, cube, factorizations, formulas, gadgets, matrices, search
from .polynomials import (
    Assignment,
    ParseError,
    format_polynomial,
    parse_fraction,
    parse_polynomial,
    term_count,
    var,
)


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:12]


class _Trace:
    """Stage records: ms since the previous one, cum_ms and wall_ms since start."""

    def __init__(self) -> None:
        self.t0 = self.last = time.monotonic()

    def stage(self, name: str, input_digest: str = "-", output_digest: str = "-",
              **params) -> None:
        now = time.monotonic()
        extra = "".join(f" {k}={v}" for k, v in params.items())
        print(f"trace stage={name} input={input_digest} output={output_digest}{extra}"
              f" ms={1000 * (now - self.last):.3f} cum_ms={1000 * (now - self.t0):.3f}"
              f" wall_ms={int(1000 * (now - self.t0))}", file=sys.stderr)
        self.last = now


def _fail(code: str, message: str, exit_code: int) -> int:
    print(f'error code={code} msg="{message}"', file=sys.stderr)
    return exit_code


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, blocks: Iterable[str], trace: _Trace, stage: str, in_digest: str,
           **params) -> None:
    """Write text given as blocks, encoding and hashing one block at a time;
    the trace's output digest is that of the whole file.  The blocks go to a
    file beside ``path`` that replaces it only after the last block, so an
    error or an interrupt while they are made leaves no cut file behind and
    a file already at ``path`` as it was."""
    part = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.part")
    sha = hashlib.sha256()
    try:
        with open(part, "wb") as out:
            for block in blocks:
                data = block.encode("utf-8")
                out.write(data)
                sha.update(data)
        os.replace(part, path)
    except BaseException:
        if os.path.isfile(part):
            os.remove(part)
        raise
    trace.stage(stage, in_digest, sha.hexdigest()[:12], file=path, **params)


def _parse_root(text: str) -> Assignment:
    values: Dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, raw = part.partition("=")
        if not raw:
            raise ValueError(f"root binding {part!r} is not of the form var=value")
        v = var(name.strip())
        if v in values:
            raise ValueError(f"root binds {v.name} more than once")
        values[v] = parse_fraction(raw)
    if not values:
        raise ValueError("empty root assignment")
    return Assignment.exact(values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_normalize(args, trace: _Trace) -> int:
    text = _read(args.formula)
    phi = formulas.parse_formula(text)
    try:
        system = formulas.flatten(formulas.to_equation_system(formulas.normalize_atoms(phi)))
    except RecursionError:  # the walks over the formula recurse once per connective
        raise ParseError("formula nests too deep to compile") from None
    poly = formulas.to_single_polynomial(system)
    out = format_polynomial(poly) + "\n"
    _write(args.output, [out], trace, "normalize", _digest(text),
           equations=len(system.equations), terms=term_count(poly))
    return 0


def cmd_bound(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    inst = cube.build_phi(f, args.m)
    out = format_polynomial(inst.phi) + "\n"
    _write(args.output, [out], trace, "bound", _digest(text),
           m=args.m, degree=inst.d, terms=term_count(inst.phi))
    print("note roots outside 2^(2^m) are not captured; m is a caller choice",
          file=sys.stderr)
    return 0


def cmd_sigma(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    sig = gadgets.sigma_set(f)
    h_size = gadgets.index_set_size(sig)
    for p in sig:
        print(format_polynomial(p, compact=True))
    print(f"sigma_size={len(sig)}")
    print(f"H_size={h_size}")
    trace.stage("sigma", _digest(text), sigma=len(sig), H=h_size)
    return 0


def cmd_matrices(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    A = gadgets.build_A(f)
    _write(str(outdir / "A.pmtx"), matrices.polynomial_matrix_blocks(A),
           trace, "matrix-A", _digest(text))
    B = gadgets.build_B(f, args.square_multiple_test)
    _write(str(outdir / "B.mtx"), matrices.matrix_blocks(B), trace, "matrix-B", _digest(text))
    C = gadgets.build_C(B)
    _write(str(outdir / "C.mtx"), matrices.matrix_blocks(C), trace, "matrix-C", _digest(text))
    return 0


def cmd_reduce(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    out = gadgets.reduce(f, args.square_multiple_test)
    _write(args.output, matrices.matrix_blocks(out.M, out.r), trace, "reduce", _digest(text),
           **dict(kv.split("=") for kv in out.trace))
    print(f"r={out.r}")
    print(f"k={out.k}")
    print(f"K={out.K}")
    print(f"dimension={out.M.nrows}")
    return 0


def cmd_witness(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    xi = _parse_root(args.root)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    comp = certificates.completion_from_root(f, xi)
    _write(str(outdir / "bprime.mtx"), matrices.matrix_blocks(comp.matrix),
           trace, "completion-matrix", _digest(text))
    _write(str(outdir / "completion.fac"),
           [factorizations.write_factorization(comp.factorization)],
           trace, "completion-witness", _digest(text))
    F = certificates.assemble_instance_witness(f, xi)
    _write(str(outdir / "instance.fac"), [factorizations.write_factorization(F)],
           trace, "instance-witness", _digest(text), size=F.k)
    print(f"witness_size={F.k}")
    return 0


def cmd_verify(args, trace: _Trace) -> int:
    # both texts are hashed as they are read and each is released once parsed
    # (popped from the list), so neither is held through verification
    texts = [_read(args.matrix), _read(args.factorization)]
    digests = list(map(_digest, texts))
    A = matrices.parse_matrix(texts.pop(0)).instance
    F = factorizations.parse_factorization(texts.pop())
    tol = parse_fraction(args.tol) if args.tol is not None else None
    if tol is not None and F.mode == "float":
        tol = float(tol)
    report = factorizations.verify_factorization(
        A, F, mode=args.mode, tol=tol, seed=args.seed, samples=args.samples)
    print(report.summary())
    counts = ("joined", "nonzero", "zero_by_support") if report.mode == "full" else ()
    trace.stage("verify", *digests, mode=args.mode, seed=args.seed,
                entries=report.entries_checked, **{k: getattr(report, k) for k in counts})
    return 0 if report.passed else 1


def cmd_extract_root(args, trace: _Trace) -> int:
    text = _read(args.poly)
    f = parse_polynomial(text)
    F = factorizations.parse_factorization(_read(args.factorization))
    try:
        root = certificates.extract_root(f, F)
    except certificates.ExtractionError as e:
        return _fail("extraction", str(e), 1)
    for v in sorted(root.values):
        print(f"{v}={root.values[v]}")
    trace.stage("extract-root", _digest(text), mode=root.mode)
    return 0


def cmd_search(args, trace: _Trace) -> int:
    mtext = _read(args.matrix)
    A = matrices.parse_matrix(mtext).instance
    config = search.SearchConfig(restarts=args.restarts, seed=args.seed,
                                 success_tol=args.tol)
    report = search.psd_rank_search(A, args.k, config)
    print(report.summary())
    trace.stage("search", _digest(mtext), k=args.k, seed=args.seed,
                verdict=report.verdict)
    if args.out_witness and report.witness is not None:
        _write(args.out_witness, [factorizations.write_factorization(report.witness)],
               trace, "search-witness", _digest(mtext))
    return 0 if report.found else 1


def cmd_sqrt_check(args, trace: _Trace) -> int:
    mtext = _read(args.matrix)
    S = matrices.parse_matrix(mtext).incomplete
    ok, witness = certificates.sqrt_condition_check(S)
    print(f"sqrt_condition={'true' if ok else 'false'}")
    if witness is not None:
        for col, (i1, i2, j1, j2) in witness.columns.items():
            print(f"column {col} rows {i1} {i2} cols {j1} {j2}")
    trace.stage("sqrt-check", _digest(mtext), result=ok)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psdrank",
                                description="PSD-rank reduction pipeline and certificate tools")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("normalize", help="formula file -> single polynomial")
    q.add_argument("formula")
    q.add_argument("-o", "--output", default="normalized.poly")
    q.set_defaults(func=cmd_normalize)

    q = sub.add_parser("bound", help="polynomial -> cube-bounded phi")
    q.add_argument("poly")
    q.add_argument("--m", type=int, default=cube.DEFAULT_TOWER_HEIGHT)
    q.add_argument("-o", "--output", default="phi.poly")
    q.set_defaults(func=cmd_bound)

    q = sub.add_parser("sigma", help="print the sigma set and index counts")
    q.add_argument("poly")
    q.set_defaults(func=cmd_sigma)

    q = sub.add_parser("matrices", help="write A/B/C matrix files")
    q.add_argument("poly")
    q.add_argument("--outdir", default=".")
    q.add_argument("--square-multiple-test", action="store_true",
                   help="mark zeros when f divides (u.v)^2 instead of (u.v)")
    q.set_defaults(func=cmd_matrices)

    q = sub.add_parser("reduce", help="polynomial -> instance matrix M with target r")
    q.add_argument("poly")
    q.add_argument("-o", "--output", default="instance.mtx")
    q.add_argument("--square-multiple-test", action="store_true")
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("witness", help="root -> completion and instance witnesses")
    q.add_argument("poly")
    q.add_argument("--root", required=True, help='e.g. "x1=1,x2=-1/2"')
    q.add_argument("--outdir", default=".")
    q.set_defaults(func=cmd_witness)

    q = sub.add_parser("verify", help="check a factorization against a matrix")
    q.add_argument("matrix")
    q.add_argument("factorization")
    q.add_argument("--mode", choices=("full", "sampled"), default="full")
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--tol", default=None)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("extract-root", help="recover a root from a completion witness")
    q.add_argument("poly")
    q.add_argument("factorization")
    q.set_defaults(func=cmd_extract_root)

    q = sub.add_parser("search", help="seeded numerical PSD-rank search")
    q.add_argument("matrix")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--restarts", type=int, default=32)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--out-witness", default=None)
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("sqrt-check", help="test the sqrt pattern condition")
    q.add_argument("matrix")
    q.set_defaults(func=cmd_sqrt_check)

    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    trace = _Trace()
    try:
        return args.func(args, trace)
    except OSError as e:  # a missing file, a directory where a file belongs, ...
        return _fail("io", str(e), 2)
    except ParseError as e:
        return _fail("parse", str(e), 2)
    except ValueError as e:
        return _fail("usage", str(e), 2)


if __name__ == "__main__":
    sys.exit(main())
