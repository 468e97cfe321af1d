import numpy as np
import pytest

from lsapdma.cli import main
from lsapdma.optimizer import OptProblem, objective, water_fill


def test_validate_pattern_ok(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("1 1 0 1 0\n1 1 1 0 0\n1 0 1 0 1\n")
    assert main(["validate-pattern", "--matrix", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_pattern_violation(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("1 0 0\n1 0 1\n1 0 1\n")  # user 1 uncovered
    assert main(["validate-pattern", "--matrix", str(path)]) == 1
    assert "uncovered" in capsys.readouterr().err


def test_validate_pattern_missing_file(capsys):
    assert main(["validate-pattern", "--matrix", "/no/such/file"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_subcommand(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 2.0\n0.5 1.5\n")
    code = main(["solve", "--gains", str(path), "--psum", "10.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status = optimal" in out
    assert "sum_rate" in out
    assert "p_matrix" in out


def test_solve_without_rate_floor_answers_with_the_water_fill(tmp_path, capsys):
    # the first instance of a random recipe (N <= 4 beams, K < 2^N users,
    # log-normal gains, 0-40 dB budgets); the barrier stops it at
    # max-iterations within 1e-9 bits of the optimum, the closed form is exact
    rng = np.random.default_rng(5)
    n = rng.integers(1, 5)
    k = rng.integers(1, 2**n)
    gains = np.exp(rng.normal(0.0, 1.0, (n, k)))
    p_sum = 10 ** (rng.uniform(0.0, 40.0) / 10)
    path = tmp_path / "h.txt"
    np.savetxt(path, gains, fmt="%.17g")
    assert main(["solve", "--gains", str(path), "--psum", repr(float(p_sum))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "status = optimal"
    prob = OptProblem.build(gains, p_sum)
    p = water_fill(prob)
    assert out[1] == f"sum_rate = {-objective(prob, p):.6g}"
    printed = np.array([[float(v) for v in line.split()] for line in out[3:]])
    assert printed.shape == (n, k)
    assert np.allclose(printed, p, rtol=1e-5, atol=0.0)
    assert printed.sum() == pytest.approx(p_sum, rel=1e-5)


def test_solve_infeasible(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("0.5 1.0\n")
    code = main(["solve", "--gains", str(path), "--psum", "0.001", "--rmin", "100"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().out


def test_solve_verbose_traces(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 2.0\n")
    # a feasible rate floor: the barrier runs and traces its outer iterations
    assert main(["solve", "--gains", str(path), "--psum", "5.0", "--rmin", "0.5", "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "gap=" in err and "newton=" in err


def test_simulate_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
[experiment]
schemes = oma
drops = 2
seed = 3

[power]
p_sum_db = 10

[output]
path = {out}
""".format(out=tmp_path / "results")
    )
    code = main(["simulate", "--config", str(cfg)])
    assert code == 0
    csv = (tmp_path / "results" / "results.csv").read_text().splitlines()
    assert csv[0] == "sweep,scheme,K,mean_sum_rate,stderr,drops"
    assert len(csv) == 2
    summary = (tmp_path / "results" / "summary.txt").read_text()
    assert "schemes = oma" in summary


def test_simulate_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nschemes = oma, pnoma\ndrops = 5\n")
    out = tmp_path / "o"
    code = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--drops",
            "2",
            "--seed",
            "9",
            "--scheme",
            "oma",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2  # single scheme, single sweep point
    assert ",100" not in lines[1]
    assert lines[1].endswith(",2")  # overridden drop count


def test_simulate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nschemes = nonsense\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err
