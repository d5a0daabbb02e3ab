import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import psdrank
from psdrank import matrices
from psdrank.cli import main
from psdrank.factorizations import p_alpha_factorization, write_factorization
from psdrank.formulas import lift_witness, parse_formula
from psdrank.gadgets import build_P, reduce
from psdrank.matrices import parse_matrix, write_matrix, InstanceMatrix
from psdrank.polynomials import Assignment, evaluate, parse_polynomial, xvar


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def child_env(**extra):
    """Environment for a child interpreter that imports the same psdrank.

    The child runs in workdir, where a relative PYTHONPATH (such as "src")
    resolves to nothing; put the directory this process imported psdrank
    from first, so both run the same package.
    """
    pkg_root = str(Path(psdrank.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


class TestNormalize:
    def test_produces_parseable_polynomial(self, workdir, capsys):
        (workdir / "f.formula").write_text("x1 > 0\n")
        assert run("normalize", "f.formula", "-o", "out.poly") == 0
        poly = parse_polynomial((workdir / "out.poly").read_text())
        assert not poly.is_zero

    def test_byte_identical_runs(self, workdir):
        (workdir / "f.formula").write_text("(x1 > 0) & (x2*x2 <= 3)\n")
        run("normalize", "f.formula", "-o", "a.poly")
        run("normalize", "f.formula", "-o", "b.poly")
        assert (workdir / "a.poly").read_bytes() == (workdir / "b.poly").read_bytes()

    def test_parse_error_exit_code(self, workdir, capsys):
        (workdir / "bad.formula").write_text("x1 >\n")
        assert run("normalize", "bad.formula") == 2
        assert "error code=parse" in capsys.readouterr().err

    def test_missing_file(self, workdir, capsys):
        assert run("normalize", "nope.formula") == 2
        assert "error code=io" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "x1 > 0" + ")" * 3000,
        "!" * 3000 + "x1 > 0",
        " & ".join(["x1 > 0"] * 3000),  # parses; the walks after it recurse too deep
    ], ids=["parens", "negations", "and-chain"])
    def test_deep_formula_is_a_parse_error(self, workdir, capsys, text):
        (workdir / "deep.formula").write_text(text + "\n")
        assert run("normalize", "deep.formula") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "nests too deep" in err
        assert "Traceback" not in err

    def test_atom_of_many_terms_compiles(self, workdir, capsys):
        # x1 - 1000 has 1,001 terms in standard form: a left chain that
        # flattening walks without recursing.
        (workdir / "f.formula").write_text("x1 > 1000\n")
        assert run("normalize", "f.formula", "-o", "out.poly") == 0
        poly = parse_polynomial((workdir / "out.poly").read_text())
        phi = parse_formula("x1 > 1000")
        assert evaluate(poly, lift_witness(phi, Assignment.exact({xvar(1): 1001}))) == 0


class TestReduce:
    def test_round_trips_with_target(self, workdir, capsys):
        (workdir / "f.poly").write_text("-1\n")
        assert run("reduce", "f.poly", "-o", "m.mtx") == 0
        out = capsys.readouterr().out
        assert "r=3" in out and "dimension=19" in out
        parsed = parse_matrix((workdir / "m.mtx").read_text())
        assert parsed.target_rank == 3
        assert parsed.instance.nrows == 19

    def test_trace_digest_is_the_files(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 - 1\n")
        assert run("reduce", "f.poly", "-o", "m.mtx") == 0
        record = capsys.readouterr().err.split()
        data = (workdir / "m.mtx").read_bytes()
        assert len(data) > 2_000_000  # many blocks
        assert f"output={hashlib.sha256(data).hexdigest()[:12]}" in record
        out = reduce(parse_polynomial("x1 - 1"))
        assert data.decode() == write_matrix(out.M, out.r)

    @pytest.mark.parametrize("exc", [KeyError, KeyboardInterrupt])
    def test_interrupted_write_leaves_no_cut_file(self, workdir, monkeypatch, exc):
        (workdir / "f.poly").write_text("x1 - 1\n")
        assert run("reduce", "f.poly", "-o", "m.mtx") == 0
        good = (workdir / "m.mtx").read_bytes()
        blocks = matrices.matrix_blocks

        def failing_blocks(m, target_rank=None):
            yield from itertools.islice(blocks(m, target_rank), 3)
            raise exc("stopped midway")

        monkeypatch.setattr(matrices, "matrix_blocks", failing_blocks)
        for name in ("m.mtx", "n.mtx"):
            with pytest.raises(exc):
                run("reduce", "f.poly", "-o", name)
        assert (workdir / "m.mtx").read_bytes() == good
        assert sorted(p.name for p in workdir.iterdir()) == ["f.poly", "m.mtx"]

    def test_deterministic_output(self, workdir):
        (workdir / "f.poly").write_text("-1\n")
        run("reduce", "f.poly", "-o", "a.mtx")
        run("reduce", "f.poly", "-o", "b.mtx")
        assert (workdir / "a.mtx").read_bytes() == (workdir / "b.mtx").read_bytes()

    def test_deterministic_across_processes(self, workdir):
        (workdir / "f.poly").write_text("x1\n")
        outs = []
        for seed, name in (("1", "a.mtx"), ("99", "b.mtx")):
            env = child_env(PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "psdrank.cli", "reduce",
                                   "f.poly", "-o", name],
                                  cwd=workdir, env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append((workdir / name).read_bytes())
        assert outs[0] == outs[1]


class TestVerify:
    def test_full_pass(self, workdir, capsys):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "p.mtx", "p.fac", "--mode", "full") == 0
        assert "max_residual=0" in capsys.readouterr().out

    def test_failure_exit_code(self, workdir):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        (workdir / "q.fac").write_text(write_factorization(p_alpha_factorization(2)))
        assert run("verify", "p.mtx", "q.fac", "--mode", "full") == 1

    def test_huge_decimal_exponent_is_a_parse_error(self, workdir, capsys):
        text = write_matrix(build_P(4)).replace("4/1", "1e10000000", 1)
        (workdir / "p.mtx").write_text(text)
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "p.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "1e10000000" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sampled_needs_a_sample(self, workdir, capsys, samples):
        (workdir / "p.mtx").write_text(write_matrix(build_P(1)))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(1)))
        assert run("verify", "p.mtx", "p.fac", "--mode", "sampled",
                   "--samples", samples) == 2
        captured = capsys.readouterr()
        assert "error code=usage" in captured.err
        assert "passed=" not in captured.out

    def test_default_mode_traces_coverage(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 - 1\n")
        assert run("reduce", "f.poly", "-o", "m.mtx") == 0
        assert run("witness", "f.poly", "--root", "x1=1", "--outdir", "w") == 0
        capsys.readouterr()
        assert run("verify", "m.mtx", "w/instance.fac") == 0
        captured = capsys.readouterr()
        trace = [dict(kv.split("=", 1) for kv in line.split()[1:])
                 for line in captured.err.splitlines() if line.startswith("trace ")]
        assert [t["stage"] for t in trace] == ["verify"]
        counts = {k: int(trace[0][k]) for k in ("entries", "joined", "nonzero", "zero_by_support")}
        M = parse_matrix((workdir / "m.mtx").read_text()).instance
        assert trace[0]["mode"] == "full" and counts["entries"] == M.nrows * M.ncols
        assert counts["nonzero"] == len(M.data)
        assert counts["joined"] + counts["zero_by_support"] == counts["entries"]
        assert captured.out == (f"mode=full entries={counts['entries']} max_residual=0 worst=- "
                                f"tol=0 passed=True joined={counts['joined']} "
                                f"nonzero={counts['nonzero']} "
                                f"zero_by_support={counts['zero_by_support']}\n")
        assert run("verify", "m.mtx", "w/instance.fac", "--mode", "sampled",
                   "--samples", "1000") == 0
        sampled = capsys.readouterr().err.split()
        assert "entries=1000" in sampled and not any(
            kv.startswith(("joined=", "nonzero=", "zero_by_support=")) for kv in sampled)

    @pytest.mark.parametrize("tol", ["-1", "-1/1000000"])
    def test_negative_tolerance_refused(self, workdir, capsys, tol):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "p.mtx", "p.fac", f"--tol={tol}") == 2
        captured = capsys.readouterr()
        assert "error code=usage" in captured.err and "passed=" not in captured.out
        assert run("verify", "p.mtx", "p.fac", "--tol", "0") == 0

    def test_sampled_deterministic_stdout(self, workdir, capsys):
        (workdir / "p.mtx").write_text(write_matrix(build_P(1)))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(1)))
        run("verify", "p.mtx", "p.fac", "--mode", "sampled", "--seed", "3",
            "--samples", "500")
        first = capsys.readouterr().out
        run("verify", "p.mtx", "p.fac", "--mode", "sampled", "--seed", "3",
            "--samples", "500")
        assert capsys.readouterr().out == first


class TestMalformedFiles:
    def test_one_token_fac_line(self, workdir, capsys):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        head = write_factorization(p_alpha_factorization(4)).splitlines()[0]
        (workdir / "bad.fac").write_text(head + "\nrow\n")
        assert run("verify", "p.mtx", "bad.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "'row'" in err

    def test_zero_denominator_mtx_entry(self, workdir, capsys):
        text = write_matrix(build_P(4))
        assert "1 1 4/1\n" in text
        (workdir / "bad.mtx").write_text(text.replace("1 1 4/1\n", "1 1 1/0\n"))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "bad.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "1 1 1/0" in err

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_negative_target_rank(self, workdir, capsys, command):
        text = write_matrix(build_P(4), target_rank=-5)
        assert "\nr -5\n" in text
        (workdir / "bad.mtx").write_text(text)
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        argv = ("bad.mtx", "p.fac") if command == "verify" else ("bad.mtx", "--k", "1")
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "'r -5'" in err

    def test_non_integer_row_index(self, workdir, capsys):
        text = write_matrix(build_P(4))
        assert "row 0 1\n" in text
        (workdir / "bad.mtx").write_text(text.replace("row 0 1\n", "row x a\n"))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "bad.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "'row x a'" in err

    def test_malformed_poly(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 *\n")
        assert run("reduce", "f.poly") == 2
        assert "error code=parse" in capsys.readouterr().err

    def test_juxtaposed_poly_terms(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 x2\n")
        assert run("reduce", "f.poly") == 2
        assert "error code=parse" in capsys.readouterr().err
        assert not (workdir / "instance.mtx").exists()

    def test_repeated_mtx_coordinate(self, workdir, capsys):
        text = write_matrix(build_P(4))
        assert "1 1 4/1\n" in text
        (workdir / "bad.mtx").write_text(text.replace("1 1 4/1\n", "1 1 4/1\n1 1 3/1\n"))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "bad.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "'1 1 3/1'" in err

    def test_repeated_fac_label(self, workdir, capsys):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        lines = write_factorization(p_alpha_factorization(4)).splitlines()
        row1 = next(ln for ln in lines if ln.startswith("row 1 "))
        (workdir / "bad.fac").write_text("\n".join(lines + [row1]) + "\n")
        assert run("verify", "p.mtx", "bad.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and repr(row1) in err


    def test_unknown_fac_layout(self, workdir, capsys):
        (workdir / "p.mtx").write_text(write_matrix(build_P(4)))
        text = write_factorization(p_alpha_factorization(4))
        head = text.splitlines()[0]
        (workdir / "bad.fac").write_text(text.replace(head, head + " bogus", 1))
        assert run("verify", "p.mtx", "bad.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "unknown layout 'bogus'" in err

    def test_repeated_r_line(self, workdir, capsys):
        (workdir / "bad.mtx").write_text(write_matrix(build_P(4), target_rank=2) + "r 3\n")
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "bad.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "repeated r line 'r 3'" in err

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_nan_fac_value(self, workdir, capsys, mode):
        (workdir / "i2.mtx").write_text(
            write_matrix(InstanceMatrix.from_dense([[1, 0], [0, 1]])))
        (workdir / "nan.fac").write_text("psdrank-factorization v1 2 2 2 float\n"
                                         "row r0 nan 0\nrow r1 0 nan\n"
                                         "col c0 nan 0\ncol c1 0 nan\n")
        assert run("verify", "i2.mtx", "nan.fac", "--mode", mode) == 2
        captured = capsys.readouterr()
        assert "error code=parse" in captured.err and "non-finite" in captured.err
        assert "passed=" not in captured.out

    def test_negative_mtx_dimension(self, workdir, capsys):
        (workdir / "bad.mtx").write_text("psdrank-matrix v1 -1 -2\n")
        assert run("sqrt-check", "bad.mtx") == 2
        err = capsys.readouterr().err
        assert "error code=parse" in err and "malformed matrix header" in err

    def test_sampled_verify_of_empty_matrix(self, workdir, capsys):
        (workdir / "e.mtx").write_text(write_matrix(InstanceMatrix((), ("a",))))
        (workdir / "e.fac").write_text("psdrank-factorization v1 1 0 1 exact\ncol a\n")
        assert run("verify", "e.mtx", "e.fac", "--mode", "sampled") == 2
        err = capsys.readouterr().err
        assert "error code=usage" in err and "0x1" in err


class TestPathErrors:
    """A path naming the wrong kind of file ends in an io error line, not a
    traceback."""

    def assert_io_error(self, capsys, *argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "error code=io" in err
        assert "Traceback" not in err

    def test_directory_as_input(self, workdir, capsys):
        (workdir / "adir").mkdir()
        self.assert_io_error(capsys, "reduce", "adir")

    def test_directory_as_output(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 - 1\n")
        (workdir / "adir").mkdir()
        self.assert_io_error(capsys, "reduce", "f.poly", "-o", "adir")

    def test_file_as_outdir(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 - 1\n")
        (workdir / "afile").write_text("")
        self.assert_io_error(capsys, "witness", "f.poly", "--root", "x1=1",
                             "--outdir", "afile")


class TestSearch:
    def test_identity_three(self, workdir, capsys):
        (workdir / "i3.mtx").write_text(
            write_matrix(InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert run("search", "i3.mtx", "--k", "2") == 1
        assert run("search", "i3.mtx", "--k", "3", "--out-witness", "w.fac") == 0
        assert (workdir / "w.fac").exists()

    def test_zero_restarts_rejected(self, workdir, capsys):
        (workdir / "i3.mtx").write_text(
            write_matrix(InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert run("search", "i3.mtx", "--k", "2", "--restarts", "0") == 2
        assert "error code=usage" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tolerance_refused(self, workdir, capsys, tol):
        (workdir / "i3.mtx").write_text(
            write_matrix(InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert run("search", "i3.mtx", "--k", "3", "--tol", tol) == 2
        captured = capsys.readouterr()
        assert "error code=usage" in captured.err and "verdict=" not in captured.out

    def test_oversized_target_refused(self, workdir, capsys):
        labels = tuple(f"l{i}" for i in range(3000))
        (workdir / "big.mtx").write_text(write_matrix(InstanceMatrix(labels, labels)))
        assert run("search", "big.mtx", "--k", "3") == 2
        err = capsys.readouterr().err
        assert "error code=usage" in err and "Jacobian" in err


class TestWitnessPipeline:
    def test_witness_then_extract(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=-1", "--outdir", "w") == 0
        assert run("extract-root", "f.poly", "w/completion.fac") == 0
        out = capsys.readouterr().out
        assert "x1=-1" in out

    def test_corrupted_completion_refused(self, workdir, capsys):
        (workdir / "g.poly").write_text("x1 - 1\n")
        assert run("witness", "g.poly", "--root", "x1=1", "--outdir", "w") == 0
        text = (workdir / "w/completion.fac").read_text()
        bad = text.replace("col (1,0,x1) 1/1 0/1 1/1\n",
                           "col (1,0,x1) 1/1 0/1 100000001/100000000\n")
        assert bad != text
        (workdir / "bad.fac").write_text(bad)
        capsys.readouterr()
        assert run("extract-root", "g.poly", "bad.fac") == 1
        out, err = capsys.readouterr()
        assert out == "" and "error code=extraction" in err

    def test_exact_chain_never_loads_numpy(self, workdir):
        # A fresh interpreter runs the yes-chain of x1 - 1 without numpy;
        # the first search in it loads numpy and finds I2's witness.
        (workdir / "g.poly").write_text("x1 - 1\n")
        child = textwrap.dedent("""
            import sys
            from psdrank.cli import main
            for argv in (["reduce", "g.poly", "-o", "M.mtx"],
                         ["witness", "g.poly", "--root", "x1=1", "--outdir", "w"],
                         ["verify", "M.mtx", "w/instance.fac", "--mode", "full"],
                         ["extract-root", "g.poly", "w/completion.fac"]):
                assert main(argv) == 0, argv
            assert "numpy" not in sys.modules, "an exact command loaded numpy"
            from psdrank import InstanceMatrix, psd_rank_search
            assert psd_rank_search(InstanceMatrix.from_dense([[1, 0], [0, 1]]), 2).found
            assert "numpy" in sys.modules
        """)
        proc = subprocess.run([sys.executable, "-c", child], cwd=workdir, env=child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert any("passed=True" in line for line in lines)
        assert lines[-1] == "x1=1"

    def test_extract_root_has_no_tolerance_options(self, workdir, capsys):
        assert run("extract-root", "--help") == 0
        assert "tol" not in capsys.readouterr().out
        assert run("extract-root", "f.poly", "w.fac", "--coord-tol", "1") == 2

    def test_verify_completion_file(self, workdir):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        run("witness", "f.poly", "--root", "x1=1", "--outdir", "w")
        assert run("verify", "w/bprime.mtx", "w/completion.fac", "--mode", "sampled",
                   "--seed", "2", "--samples", "2000") == 0

    def test_trace_records_stage_and_cumulative_times(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=1", "--outdir", "w") == 0
        records = [dict(kv.split("=", 1) for kv in line.split()[1:])
                   for line in capsys.readouterr().err.splitlines()
                   if line.startswith("trace ")]
        assert [r["stage"] for r in records] == [
            "completion-matrix", "completion-witness", "instance-witness"]
        total = 0.0
        for r in records:
            ms, cum_ms, wall_ms = float(r["ms"]), float(r["cum_ms"]), int(r["wall_ms"])
            assert ms >= 0
            total += ms
            # each field is rounded to 3 decimals on its own
            assert abs(cum_ms - total) <= 0.0005 * len(records) + 0.0005
            assert wall_ms <= cum_ms + 0.0005 < wall_ms + 1.001
        assert float(records[-1]["ms"]) > 0

    def test_bad_root_rejected(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=0", "--outdir", "w") == 2
        assert "error code=usage" in capsys.readouterr().err

    def test_huge_decimal_exponent_root_rejected(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=1e10000000", "--outdir", "w") == 2
        err = capsys.readouterr().err
        assert "error code=usage" in err and "more than 4300 digits" in err
        assert not (workdir / "w").exists()

    def test_repeated_root_variable_rejected(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=1,x1=3", "--outdir", "w") == 2
        err = capsys.readouterr().err
        assert "error code=usage" in err and "x1 more than once" in err
        assert not (workdir / "w").exists()


class TestOtherCommands:
    def test_sigma(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("sigma", "f.poly") == 0
        out = capsys.readouterr().out
        assert "sigma_size=9" in out and "H_size=217" in out

    def test_sigma_counts_H_without_building_it(self, workdir, capsys):
        # |sigma| = 291 for "x1 > 0"; building its 253,171 H labels took
        # 13 s, and the printed lines are the same as when H was built.
        (workdir / "f.formula").write_text("x1 > 0\n")
        assert run("normalize", "f.formula", "-o", "f.poly") == 0
        capsys.readouterr()
        assert run("sigma", "f.poly") == 0
        out = capsys.readouterr().out
        assert out.endswith("sigma_size=291\nH_size=253171\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "171bb65cf9b119bf268e5f7fefe8aa8419bb6bc6ab2e04e4709c44511dccc6be")

    def test_bound(self, workdir):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("bound", "f.poly", "--m", "1", "-o", "phi.poly") == 0
        phi = parse_polynomial((workdir / "phi.poly").read_text())
        assert phi.degree() == 4

    def test_sqrt_check(self, workdir, capsys):
        (workdir / "f.poly").write_text("-1\n")
        run("reduce", "f.poly", "-o", "b.mtx")
        capsys.readouterr()
        assert run("sqrt-check", "b.mtx") == 0
        assert "sqrt_condition=true" in capsys.readouterr().out

    def test_matrices(self, workdir):
        (workdir / "f.poly").write_text("-1\n")
        assert run("matrices", "f.poly", "--outdir", "abc") == 0
        got = parse_matrix((workdir / "abc" / "B.mtx").read_text())
        assert got.matrix.nrows == 19
        assert (workdir / "abc" / "A.pmtx").exists()
        assert (workdir / "abc" / "C.mtx").exists()

    def test_matrices_bytes_pinned(self, workdir):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("matrices", "f.poly", "--outdir", "abc") == 0
        digests = {name: hashlib.sha256((workdir / "abc" / name).read_bytes()).hexdigest()
                   for name in ("A.pmtx", "B.mtx", "C.mtx")}
        assert digests == {
            "A.pmtx": "ab7c11a918ba74e89485c328b0f8e15169bc799ab7581673222cdf6681d8688a",
            "B.mtx": "c9ce3bbcfeeb4c57feda240bf0f50ff36b9d2c62cbc56ed281864874f76dbf21",
            "C.mtx": "c1ead77520e9ac832af0af260a4b3874f831a4e8e8aafa79a25be00a9687f5fb",
        }
