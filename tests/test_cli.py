import pytest

from psdrank.cli import main
from psdrank.factorizations import p_alpha_factorization, write_factorization
from psdrank.gadgets import build_P
from psdrank.matrices import parse_matrix, write_matrix, InstanceMatrix
from psdrank.polynomials import parse_polynomial


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


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


class TestReduce:
    def test_round_trips_with_target(self, workdir, capsys):
        (workdir / "f.poly").write_text("-1\n")
        assert run("reduce", "f.poly", "-o", "m.mtx") == 0
        out = capsys.readouterr().out
        assert "r=3" in out and "dimension=19" in out
        parsed = parse_matrix((workdir / "m.mtx").read_text())
        assert parsed.target_rank == 3
        assert parsed.instance.nrows == 19

    def test_deterministic_output(self, workdir):
        (workdir / "f.poly").write_text("-1\n")
        run("reduce", "f.poly", "-o", "a.mtx")
        run("reduce", "f.poly", "-o", "b.mtx")
        assert (workdir / "a.mtx").read_bytes() == (workdir / "b.mtx").read_bytes()

    def test_deterministic_across_processes(self, workdir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import psdrank

        # The child runs in workdir, where a relative PYTHONPATH (such as
        # "src") resolves to nothing; put the directory the parent imported
        # psdrank from first, so both run the same package.
        pkg_root = str(Path(psdrank.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
        (workdir / "f.poly").write_text("x1\n")
        outs = []
        for seed, name in (("1", "a.mtx"), ("99", "b.mtx")):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
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
        assert "error code=" in err and "'row'" in err

    def test_zero_denominator_mtx_entry(self, workdir, capsys):
        text = write_matrix(build_P(4))
        assert "1 1 4/1\n" in text
        (workdir / "bad.mtx").write_text(text.replace("1 1 4/1\n", "1 1 1/0\n"))
        (workdir / "p.fac").write_text(write_factorization(p_alpha_factorization(4)))
        assert run("verify", "bad.mtx", "p.fac") == 2
        err = capsys.readouterr().err
        assert "error code=" in err and "1 1 1/0" in err


class TestSearch:
    def test_identity_three(self, workdir, capsys):
        (workdir / "i3.mtx").write_text(
            write_matrix(InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert run("search", "i3.mtx", "--k", "2") == 1
        assert run("search", "i3.mtx", "--k", "3", "--out-witness", "w.fac") == 0
        assert (workdir / "w.fac").exists()


class TestWitnessPipeline:
    def test_witness_then_extract(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=-1", "--outdir", "w") == 0
        assert run("extract-root", "f.poly", "w/completion.fac") == 0
        out = capsys.readouterr().out
        assert "x1=-1" in out

    def test_verify_completion_file(self, workdir):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        run("witness", "f.poly", "--root", "x1=1", "--outdir", "w")
        assert run("verify", "w/bprime.mtx", "w/completion.fac", "--mode", "sampled",
                   "--seed", "2", "--samples", "2000") == 0

    def test_bad_root_rejected(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("witness", "f.poly", "--root", "x1=0", "--outdir", "w") == 2
        assert "error code=usage" in capsys.readouterr().err


class TestOtherCommands:
    def test_sigma(self, workdir, capsys):
        (workdir / "f.poly").write_text("x1*x1 - 1\n")
        assert run("sigma", "f.poly") == 0
        out = capsys.readouterr().out
        assert "sigma_size=9" in out and "H_size=217" in out

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
