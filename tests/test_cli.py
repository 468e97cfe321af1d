import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lsapdma.cli import main
from lsapdma.harness import ExperimentConfig
from lsapdma.optimizer import OptProblem, objective, water_fills

ROOT = Path(__file__).resolve().parent.parent


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
    p = water_fills(prob.gains, prob.p_sum, prob.delta, prob.support)
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


def test_solve_rate_floor_near_the_least_power_boundary(tmp_path, capsys):
    # feasible, though an iterative phase I once reported no strictly
    # feasible point there
    from test_optimizer import _near_boundary_rate_floor_instance

    gains, p_sum, r_min = _near_boundary_rate_floor_instance()
    path = tmp_path / "h.txt"
    np.savetxt(path, gains, fmt="%.17g")
    main(["solve", "--gains", str(path), "--psum", repr(p_sum), "--rmin", repr(r_min)])
    captured = capsys.readouterr()
    assert "no strictly feasible" not in captured.err
    out = captured.out.splitlines()
    assert out[0] != "status = infeasible"
    assert "p_matrix =" in out
    printed = np.array([[float(v) for v in line.split()] for line in out[out.index("p_matrix =") + 1 :]])
    assert printed.shape == (2, 3)
    assert printed.sum() <= p_sum * (1 + 1e-5)


def test_solve_rate_floor_exits_zero_when_the_barrier_converges(tmp_path, capsys):
    # rate-floor instances at 0, 10 and 20 dB that the barrier solves to its
    # duality gap; exit code 2 is kept for infeasible and max-iterations
    from test_optimizer import _rate_floor_instance

    rng = np.random.default_rng(3)
    path = tmp_path / "h.txt"
    for i in range(3):
        prob, _ = _rate_floor_instance(rng, 3, 5, 10.0 * i, anchored=False)
        np.savetxt(path, prob.gains, fmt="%.17g")
        code = main(["solve", "--gains", str(path), "--psum", repr(prob.p_sum), "--rmin", repr(prob.r_min)])
        assert capsys.readouterr().out.splitlines()[0] == "status = converged", i
        assert code == 0, i


def test_solve_rejects_non_finite_input(tmp_path, capsys):
    # each used to print a status and powers: a NaN gain "optimal" with a
    # NaN sum rate, an infinite budget infinite powers, a NaN rate floor
    # "infeasible"
    good, bad = tmp_path / "h.txt", tmp_path / "nan.txt"
    good.write_text("1.0 2.0\n0.5 1.5\n")
    bad.write_text("1.0 nan\n0.5 1.5\n")
    for args, field in (
        (["--gains", str(bad), "--psum", "10"], "gains"),
        (["--gains", str(good), "--psum", "inf"], "p_sum"),
        (["--gains", str(good), "--psum", "nan"], "p_sum"),
        (["--gains", str(good), "--psum", "10", "--rmin", "nan"], "r_min"),
    ):
        assert main(["solve", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be")


def test_solve_refuses_an_empty_or_ragged_gain_file(tmp_path, capsys, recwarn):
    # an empty file printed numpy's "no data" warning and a reshape error
    # that did not name the gain matrix
    for name, text, message in (
        ("empty.txt", "", "is empty"),
        ("comments.txt", "# beams x users\n\n", "is empty"),
        ("ragged.txt", "1.0 2.0\n0.5\n", "the number of columns changed"),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", "--gains", str(path), "--psum", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "gain matrix" in captured.err and message in captured.err
    assert len(recwarn) == 0


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
    assert capsys.readouterr().err == ""
    csv = (tmp_path / "results" / "results.csv").read_text().splitlines()
    assert csv[0] == "sweep,scheme,K,mean_sum_rate,stderr,drops"
    assert len(csv) == 2
    summary = (tmp_path / "results" / "summary.txt").read_text()
    assert "schemes = oma" in summary


def test_simulate_verbose_reports_each_chunk(tmp_path, capsys):
    # 130 drops on one worker run as three chunks (43, 43, 44 drops)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nschemes = oma\ndrops = 130\n\n[output]\npath = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg), "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("drops ")] == ["drops 43/130", "drops 86/130", "drops 130/130"]


def test_simulate_echoes_a_percent_sign_that_reads_back(tmp_path):
    # the echo of an output path holding "%" in summary.txt could not be
    # read back while the reader took "%" for an interpolation
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nschemes = oma\ndrops = 2\n")
    out = tmp_path / "50%"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    echo = (out / "summary.txt").read_text().split("[config]\n", 1)[1]
    assert ExperimentConfig.from_text(echo) == replace(ExperimentConfig.from_file(cfg), output_path=str(out))


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


def test_simulate_bad_config(tmp_path, capfd):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nschemes = nonsense\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "error" in capfd.readouterr().err
    # a non-finite cell value is named: a NaN noise variance ran to a
    # results.csv of zero sum rates, an infinite reference distance to a
    # ZeroDivisionError traceback
    for key, value in (("noise_variance", "nan"), ("reference_distance_m", "inf"), ("shadow_std_db", "nan")):
        out = tmp_path / key
        cfg.write_text(f"[cell]\n{key} = {value}\n\n[experiment]\nschemes = oma\ndrops = 3\n\n[output]\npath = {out}\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capfd.readouterr().err == f"error: {key} must be finite\n"
        assert not out.exists()
    # a key before any section header, a repeated key and a line without
    # "=" ended in a configparser traceback with no error line, and a value
    # that does not parse was not named: each gives one error line that
    # names what it is about (a syntax error the file and the line), and
    # writes no output directory
    out = tmp_path / "syntax"
    head = f"[output]\npath = {out}\n\n"
    source = f"'{cfg}'"
    for text, named in (
        ("schemes = oma\n" + head, ("no section headers", source, "line: 1")),
        (head + "[experiment]\nschemes = oma\nschemes = oma\n", ("'schemes'", "'experiment'", source, "line 6")),
        (head + "[experiment]\nschemes\n", ("parsing errors", source, "line 5")),
        (head + "[power]\nmu = 2, x\n", ("[power] mu:", "'x'")),
        (head + "[experiment]\ndrops = 1.5\n", ("[experiment] drops:", "'1.5'")),
    ):
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(part in err for part in named), err
        assert not out.exists()
    # a finite exponent whose path loss overflows at the minimum distance
    # ended in an OverflowError traceback with no error line
    out = tmp_path / "exponent"
    cfg.write_text(f"[cell]\npath_loss_exponent = 1000\n\n[experiment]\nschemes = oma\ndrops = 3\n\n[output]\npath = {out}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: path_loss_factor = 1, path_loss_exponent = 1000 and reference_distance_m = 1000 give")
    assert err.endswith("at min_distance_m = 10 that is not a finite positive float\n")
    assert not out.exists()
    # a path loss that passes the check but overflows the receive chain:
    # numpy warned, and the NaN gains were taken as zero gains, so the run
    # wrote a mean sum rate of about 1086 bit/s/Hz.  At 1e295 every drop
    # overflows; at 1e168 drop 0 runs and drop 1 overflows, so with two
    # workers the error comes from the pool process, which runs drop 1.
    fig4 = (ROOT / "configs" / "fig4.cfg").read_text()
    assert "path_loss_factor = 1.0\n" in fig4
    assert "workers = 2\n" in fig4
    for factor, drops in (("1e295", 50), ("1e168", 2)):
        for workers in (1, 2):
            out = tmp_path / f"overflow-{factor}-{workers}"
            text = fig4.replace("path_loss_factor = 1.0\n", f"path_loss_factor = {factor}\n")
            cfg.write_text(text.replace("workers = 2\n", f"workers = {workers}\n"))
            args = ["simulate", "--config", str(cfg), "--scheme", "oma", "--drops", str(drops), "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(args) == 1
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: the link gains are not finite")
            assert captured.err.count("\n") == 1
            assert not out.exists()
    # at 1e168 drop 0 alone runs
    out = tmp_path / "overflow-drop-0"
    assert main(["simulate", "--config", str(cfg), "--scheme", "oma", "--drops", "1", "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
