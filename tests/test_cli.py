import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from oscillent import NumberState, OscillatorSystem, acceptance, cli, fock, grid
from oscillent.errors import NumericalConsistencyError


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPurityCommand:
    def test_number_state_g1(self, capsys):
        code, rec = run_json(capsys, ["purity", "--g", "1", "--mu1", "0.5",
                                      "--state", "number:0,1", "--method", "exact"])
        assert code == 0
        assert rec["purity"] == pytest.approx(0.5, abs=1e-12)

    def test_analytic_coherent(self, capsys):
        code, rec = run_json(capsys, ["purity", "--g", "4", "--mu1", "0.5",
                                      "--state", "coherent:", "--method", "analytic"])
        assert code == 0
        assert rec["purity"] == pytest.approx(0.8, abs=1e-12)

    def test_analytic_rejects_number_state(self, capsys):
        code = cli.run(["purity", "--g", "4", "--mu1", "0.5",
                        "--state", "number:1,1", "--method", "analytic"])
        assert code == 1

    # the Gaussian states on a (g, mu1) grid and on a (c, mu1, tau) grid
    @pytest.mark.parametrize("cases", [
        [(["--g", g, "--mu1", mu1], state) for g in ("0.1", "1", "7", "300")
         for mu1 in ("0.05", "0.3", "0.5", "0.9")
         for state in ("coherent:", "coherent:0.7+0.4j,-0.3+1.1j", "number:0,0")],
        [(["--c", c, "--mu1", mu1], state) for c in ("0.5", "2", "30")
         for mu1 in ("0.05", "0.5", "0.9")
         for state in ("coherent:", "number:0,0", "unbound:0,0", "unbound:0,1.5",
                       "unbound:0,40")],
    ], ids=["g-mu1", "c-mu1-tau"])
    def test_analytic_is_the_closed_form_part_of_exact(self, capsys, cases):
        for flags, state in cases:
            records = {}
            for method in ("analytic", "exact"):
                code, records[method] = run_json(capsys, ["purity", *flags, "--state", state,
                                                          "--method", method])
                assert code == 0
                assert records[method].pop("method") == method
            assert records["analytic"] == records["exact"], (flags, state)

    def test_oracle_method(self, capsys):
        code, rec = run_json(capsys, ["purity", "--g", "4", "--mu1", "0.5",
                                      "--state", "coherent:", "--method", "oracle",
                                      "--n-points", "256"])
        assert code == 0
        assert rec["purity"] == pytest.approx(0.8, abs=1e-6)
        assert "norm_defect" in rec

    def test_fock_method(self, capsys):
        code, rec = run_json(capsys, ["purity", "--g", "1", "--mu1", "0.5",
                                      "--state", "number:0,1", "--method", "fock",
                                      "--jmax", "1", "--gamma1",
                                      str(1 / math.sqrt(2)), "--gamma2",
                                      str(1 / math.sqrt(2))])
        assert code == 0
        assert rec["purity"] == pytest.approx(0.5, abs=1e-10)
        assert rec["basis"]["jmax"] == 1

    def test_sup_state_angle_literal(self, capsys):
        code, rec = run_json(capsys, ["purity", "--g", "1", "--mu1", "0.75",
                                      "--state", "sup:pi/6"])
        assert code == 0
        assert rec["purity"] == pytest.approx(1.0, abs=1e-10)

    def test_unbound_state(self, capsys):
        code, rec = run_json(capsys, ["purity", "--c", "3", "--mu1", "0.5",
                                      "--state", "unbound:0,5", "--method", "exact"])
        assert code == 0
        assert 0 < rec["purity"] < 1

    def test_resource_cap_exit_code(self, capsys):
        # the exact route's order caps are fixed: the message names the cap
        # and offers no way past it
        for system, state, cap in [
            (["--g", "2", "--mu1", "0.5"], "number:9,9", "cap 8"),
            (["--g", "2", "--mu1", "0.5"], "number:5,4", "cap 8"),
            (["--c", "2", "--mu1", "0.5"], "unbound:9,1", "cap 8"),
            (["--g", "2", "--mu1", "0.5"], "superposition:0,0,0.6;0,5,0.8", "cap 16"),
        ]:
            assert cli.run(["purity", *system, "--state", state]) == 3
            err = capsys.readouterr().err
            assert cap in err
            assert "raise" not in err

    def test_fock_truncation_beyond_float_factorials_exits_three(self, capsys):
        assert cli.run(["purity", "--g", "2", "--mu1", "0.5", "--state", "number:1,1",
                        "--method", "fock", "--jmax", "180"]) == 3
        assert "lower the truncation" in capsys.readouterr().err

    def test_fock_record_from_one_density_matrix(self, capsys, monkeypatch):
        sys_ = OscillatorSystem.from_dimensionless(3.0, 0.3)
        basis = fock.default_basis(sys_, jmax=12)
        state = NumberState(1, 2)
        purity = fock.purity_truncated(sys_, state, basis)
        entropy = fock.entropy_truncated(sys_, state, basis)
        calls = []
        real_table = fock.coefficient_table

        def counted_table(*args):
            calls.append(args)
            return real_table(*args)

        monkeypatch.setattr(fock, "coefficient_table", counted_table)
        code, rec = run_json(capsys, ["purity", "--g", "3", "--mu1", "0.3",
                                      "--state", "number:1,2", "--method", "fock"])
        assert code == 0
        assert len(calls) == 1
        assert rec["purity"] == purity
        assert rec["entropy"] == entropy

    def test_oversized_oracle_grid_exits_three_before_allocating(self, capsys, tmp_path):
        tracemalloc.start()
        try:
            assert cli.run(["purity", "--g", "2", "--mu1", "0.5", "--state", "number:1,1",
                            "--method", "oracle", "--n-points", "100000"]) == 3
            assert cli.run(["figure", "fig1", "--points", "100000",
                            "--outdir", str(tmp_path)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert capsys.readouterr().err.count("lower the grid points") == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_parameter_exits_one(self, capsys, value):
        assert cli.run(["purity", "--g", value, "--mu1", "0.3",
                        "--state", "number:0,1"]) == 1
        assert cli.run(["purity", "--g", "2", "--mu1", "0.3", "--state", "number:0,1",
                        "--method", "fock", "--gamma1", value, "--gamma2", "1"]) == 1
        assert cli.run(["purity", "--m1", "1", "--m2", "2", "--omega", "3",
                        "--Omega", value, "--state", "number:0,1"]) == 1
        assert cli.run(["purity", "--g", "2", "--mu1", "0.3", "--state", "number:0,1",
                        "--method", "oracle", "--extent", value]) == 1
        assert cli.run(["sweep", "--g", "2", "--mu1", "0.3", "--param", "theta",
                        "--range", f"0:{value}:3"]) == 1
        for method in ("analytic", "exact", "fock", "oracle"):
            for state in (f"coherent:{value},0", f"sup:{value}",
                          f"superposition:0,1,0.6;1,0,{value}"):
                assert cli.run(["purity", "--g", "2", "--mu1", "0.3", "--state", state,
                                "--method", method]) == 1
        assert capsys.readouterr().out == ""

    def test_overflowing_state_literals(self, capsys):
        # sum |c|^2 overflows to inf, which is not 1
        assert cli.run(["purity", "--g", "2", "--mu1", "0.3",
                        "--state", "superposition:0,0,1e200;1,0,0"]) == 1
        assert "not normalized" in capsys.readouterr().err
        # tau^2 overflows: no finite grid holds the packet, sized or given
        for points in ([], ["--n-points", "64"]):
            assert cli.run(["purity", "--method", "oracle", "--c", "2", "--mu1", "0.3",
                            "--state", "unbound:1,1e200", *points]) == 3
            assert "unboundedly many points" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "exact"])
    def test_spread_packet_whose_tau_squared_overflows(self, capsys, method):
        # the closed form is c/|tau| there, c = 2; it used to print 0.0
        code, rec = run_json(capsys, ["purity", "--method", method, "--c", "2",
                                      "--mu1", "0.3", "--state", "unbound:0,1e300"])
        assert code == 0
        assert rec["purity"] == pytest.approx(2e-300, rel=1e-15, abs=0)

    def test_usage_errors_exit_one(self):
        assert cli.run(["purity", "--g", "1", "--state", "number:0,1"]) == 1
        assert cli.run(["purity", "--g", "1", "--mu1", "0.5",
                        "--state", "nonsense:1"]) == 1
        assert cli.run(["purity", "--g", "0", "--mu1", "0.5",
                        "--state", "number:0,1"]) == 1
        assert cli.run(["nonexistent-command"]) == 1

    def test_numerical_consistency_exit_two(self, monkeypatch):
        def broken(*a, **kw):
            raise NumericalConsistencyError("synthetic failure")
        monkeypatch.setattr(cli.grid, "schmidt_analyze", broken)
        assert cli.run(["purity", "--g", "4", "--mu1", "0.5",
                        "--state", "coherent:", "--method", "oracle"]) == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "rec.json"
        code = cli.run(["purity", "--g", "1", "--mu1", "0.5",
                        "--state", "number:0,1", "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["purity"] == pytest.approx(0.5)


class TestCovarianceCommand:
    def test_record_contents(self, capsys):
        code, rec = run_json(capsys, ["covariance", "--g", "4", "--mu1", "0.5"])
        assert code == 0
        assert rec["r"] == pytest.approx(math.acosh(1.25), abs=1e-12)
        assert rec["logneg"] == rec["r"]
        V = np.array(rec["V"])
        assert V.shape == (4, 4)
        Vp = np.array(rec["V_standard"])
        assert np.allclose(np.diag(Vp), math.cosh(rec["r"]), atol=1e-10)


class TestSweepCommand:
    def test_mu1_sweep_symmetry(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.run(["sweep", "--param", "mu1", "--range", "0.01:0.99:99",
                        "--g", "5", "--state", "number:1,1", "--method", "exact",
                        "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# params: ")
        assert lines[1] == "mu1,purity"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 99
        purities = [p for (_, p) in rows]
        for a, b in zip(purities, purities[::-1]):
            assert abs(a - b) < 1e-10

    def test_deterministic_output(self, tmp_path):
        argv = ["sweep", "--param", "g", "--range", "0.5:8:7", "--scale", "log",
                "--mu1", "0.4", "--state", "number:0,1", "--method", "exact"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(argv + ["-o", str(a)]) == 0
        assert cli.run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tau_sweep(self, tmp_path):
        out = tmp_path / "tau.csv"
        code = cli.run(["sweep", "--param", "tau", "--range", "0:8:5",
                        "--c", "3", "--mu1", "0.5", "--state", "unbound:0,0",
                        "--method", "analytic", "-o", str(out)])
        assert code == 0
        rows = [tuple(map(float, ln.split(",")))
                for ln in out.read_text().splitlines()[2:]]
        purities = [p for (_, p) in rows]
        assert all(a > b for a, b in zip(purities, purities[1:]))

    def test_theta_sweep(self, tmp_path):
        out = tmp_path / "theta.csv"
        code = cli.run(["sweep", "--param", "theta", "--range", "0:1.5:4",
                        "--g", "1", "--mu1", "0.5", "--method", "exact",
                        "-o", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 4

    def test_c_sweep(self, tmp_path):
        out = tmp_path / "c.csv"
        code = cli.run(["sweep", "--param", "c", "--range", "1:30:4",
                        "--scale", "log", "--mu1", "0.5",
                        "--state", "unbound:0,0", "--method", "analytic",
                        "-o", str(out)])
        assert code == 0

    def test_bad_range_exits_one(self):
        assert cli.run(["sweep", "--param", "mu1", "--range", "zap",
                        "--g", "1", "--state", "number:0,1"]) == 1
        assert cli.run(["sweep", "--param", "mu1", "--range", "0.1:0.9:1",
                        "--g", "1", "--state", "number:0,1"]) == 1

    def test_failing_sweep_stops_within_its_first_block(self, capsys):
        tracemalloc.start()
        try:
            assert cli.run(["sweep", "--param", "g", "--range", "1:2:100000",
                            "--c", "2", "--mu1", "0.3"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 23
        assert capsys.readouterr().err == (
            "error: pass the flags of one gauge, not --g and --c/--gamma\n")

    def test_tau_sweep_needs_an_unbound_state(self, capsys):
        assert cli.run(["sweep", "--param", "tau", "--range", "0:1:2", "--c", "2",
                        "--mu1", "0.3", "--state", "number:1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweeping tau needs --state unbound:M,TAU\n"

    def test_oversized_sweep_exits_three_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            assert cli.run(["sweep", "--param", "mu1", "--range", "0.1:0.9:1000000000000",
                            "--g", "1", "--state", "number:0,1"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert "1000000000000 points exceeds the cap" in capsys.readouterr().err


PHYSICAL = ["--m1", "1", "--m2", "2", "--omega", "3", "--Omega", "1"]


def run_table(capsys, argv):
    """The params dict and the lines after it of a table written to stdout."""
    assert cli.run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[0][len("# params: "):]), lines[1:]


class TestOneGauge:
    # each purity command next to a sweep that sets the same flags
    @pytest.mark.parametrize("flags, sweep, state", [
        (["--g", "5", "--c", "2", "--mu1", "0.2"],
         ["--param", "mu1", "--range", "0.2:0.8:2", "--g", "5", "--c", "2"], "number:1,1"),
        (["--c", "1", "--gamma", "2", "--mu1", "0.3"],
         ["--param", "c", "--range", "1:2:2", "--gamma", "2", "--mu1", "0.3"], "unbound:0,0"),
        (["--g", "1", "--c", "2", "--mu1", "0.3"],
         ["--param", "g", "--range", "1:2:2", "--c", "2", "--mu1", "0.3"], "number:1,1"),
        (["--g", "5", "--mu1", "0.3", *PHYSICAL],
         ["--param", "theta", "--range", "0:1:2", "--g", "5", "--mu1", "0.3", *PHYSICAL],
         "number:1,1"),
        (["--c", "2", "--mu1", "0.3", "--Omega", "0"],
         ["--param", "tau", "--range", "0:1:2", "--c", "2", "--mu1", "0.3", "--Omega", "0"],
         "unbound:0,0"),
        ([*PHYSICAL, "--mu1", "0.3"],
         ["--param", "mu1", "--range", "0.2:0.8:2", *PHYSICAL], "number:1,1"),
    ])
    def test_flags_of_two_gauges_exit_one(self, capsys, flags, sweep, state):
        assert cli.run(["purity", "--state", state, *flags]) == 1
        assert cli.run(["sweep", "--state", state, *sweep]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 2

    def test_the_message_names_the_gauges(self, capsys):
        assert cli.run(["purity", "--g", "5", "--c", "2", "--mu1", "0.2",
                        "--state", "number:1,1"]) == 1
        assert capsys.readouterr().err == (
            "error: pass the flags of one gauge, not --g and --c/--gamma\n")
        assert cli.run(["purity", *PHYSICAL, "--mu1", "0.3", "--state", "number:1,1"]) == 1
        assert "--mu1 belongs to the g and c gauges" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["purity", "--g", "5", "--mu1", "0.3", "--Gamma", "7", "--hbar", "3",
          "--state", "number:1,1"],
         "the g gauge reads neither --Gamma nor --hbar"),
        (["purity", "--c", "2", "--mu1", "0.3", "--hbar", "3", "--state", "unbound:1,1"],
         "--hbar belongs to the physical gauge"),
        (["purity", *PHYSICAL, "--Gamma", "5", "--state", "number:1,1"],
         "Gamma is derived from the trap; do not pass it when OmegaTrap > 0"),
        (["sweep", "--param", "mu1", "--range", "0.2:0.8:3", "--g", "5", "--hbar", "3"],
         "the g gauge reads neither --Gamma nor --hbar"),
    ], ids=["g", "c", "physical", "sweep"])
    def test_gamma_and_hbar_only_beside_a_gauge_that_reads_them(self, capsys, argv, message):
        assert cli.run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSweepHeader:
    def test_physical_fock_and_oracle_flags_are_recorded(self, capsys):
        params, _ = run_table(capsys, ["sweep", "--param", "theta", "--range", "0:1:2",
                                       *PHYSICAL])
        assert {k: params[k] for k in ("m1", "m2", "omega", "Omega")} == {
            "m1": 1.0, "m2": 2.0, "omega": 3.0, "Omega": 1.0}
        params, _ = run_table(capsys, ["sweep", "--param", "g", "--range", "1:2:2",
                                       "--mu1", "0.3", "--state", "number:0,1",
                                       "--method", "fock", "--jmax", "24"])
        assert (params["jmax"], params["kmax"]) == (24, 24)
        assert "gamma1" not in params
        params, _ = run_table(capsys, ["sweep", "--param", "mu1", "--range", "0.3:0.6:2",
                                       "--g", "2", "--state", "number:1,1",
                                       "--method", "oracle", "--n-points", "256"])
        assert (params["n_points"], params["extent"]) == (256, 8.0)

    def test_exact_header_keeps_its_keys(self, capsys):
        params, _ = run_table(capsys, ["sweep", "--param", "mu1", "--range", "0.2:0.8:2",
                                       "--g", "5", "--state", "number:1,1"])
        assert params == {"g": 5.0, "method": "exact", "param": "mu1", "range": "0.2:0.8:2",
                          "scale": "linear", "state": "number:1,1"}
        params, _ = run_table(capsys, ["sweep", "--param", "mu1", "--range", "0.2:0.8:2",
                                       "--c", "2", "--Gamma", "1.5", "--state", "unbound:0,1"])
        assert params["Gamma"] == 1.5 and "hbar" not in params

    @pytest.mark.parametrize("argv", [
        ["--param", "theta", "--range", "0:1:3", *PHYSICAL],
        ["--param", "tau", "--range", "0:4:3", "--m1", "1", "--m2", "2", "--omega", "3",
         "--Omega", "0", "--Gamma", "1.5", "--hbar", "2", "--state", "unbound:1,0"],
        ["--param", "g", "--range", "1:3:3", "--mu1", "0.3", "--state", "number:0,1",
         "--method", "fock", "--jmax", "10", "--kmax", "8", "--gamma1", "0.8",
         "--gamma2", "1.2"],
        ["--param", "mu1", "--range", "0.3:0.6:2", "--g", "2", "--state", "number:1,1",
         "--method", "oracle", "--n-points", "256", "--extent", "9"],
        ["--param", "mu1", "--range", "0.3:0.6:2", "--g", "2", "--state", "number:1,1",
         "--method", "oracle"],
    ])
    def test_header_as_config_rebuilds_the_table(self, tmp_path, capsys, argv):
        params, lines = run_table(capsys, ["sweep", *argv])
        cfg = tmp_path / "header.json"
        cfg.write_text(json.dumps(params))
        assert run_table(capsys, ["sweep", "--config", str(cfg)]) == (params, lines)


def _cells(lines):
    """The columns of a table's rows, by name."""
    names = lines[0].split(",")
    return dict(zip(names, zip(*(ln.split(",") for ln in lines[1:]))))


class TestSweepPointIsThePurityCommand:
    # (swept flag, flags of one gauge, state, range) for every gauge each
    # parameter accepts
    @pytest.mark.parametrize("param, flags, state, rng", [
        ("g", ["--mu1", "0.3"], "number:2,1", "0.2:20:4"),
        ("mu1", ["--g", "5"], "number:2,1", "0.05:0.95:4"),
        ("mu1", ["--c", "2"], "unbound:1,3", "0.05:0.95:4"),
        ("mu1", ["--gamma", "0.7", "--Gamma", "1.3"], "unbound:0,2", "0.05:0.95:4"),
        ("c", ["--mu1", "0.3", "--Gamma", "1.5"], "unbound:1,2", "0.5:5:4"),
        ("tau", ["--c", "2", "--mu1", "0.3"], "unbound:2,0", "0:8:4"),
        ("tau", ["--gamma", "0.7", "--mu1", "0.3"], "unbound:0,0", "0:8:4"),
        ("tau", ["--m1", "1", "--m2", "2", "--omega", "3", "--Omega", "0",
                 "--Gamma", "1.2"], "unbound:1,0", "0:8:4"),
        ("theta", ["--g", "5", "--mu1", "0.3"], "coherent:", "0:3:4"),
        ("theta", ["--c", "2", "--mu1", "0.3"], "coherent:", "0:3:4"),
        ("theta", PHYSICAL, "coherent:", "0:3:4"),
    ])
    def test_bit_for_bit(self, capsys, param, flags, state, rng):
        _, lines = run_table(capsys, ["sweep", "--param", param, "--range", rng,
                                      "--state", state, *flags])
        for value, purity in (ln.split(",") for ln in lines[1:]):
            if param == "tau":
                point = ["--state", f"{state.rsplit(',', 1)[0]},{value}"]
            elif param == "theta":
                point = ["--state", f"sup:{value}"]
            else:
                point = ["--state", state, f"--{param}", value]
            code, rec = run_json(capsys, ["purity", *flags, *point])
            assert code == 0
            assert rec["purity"] == float(purity)


class TestFiguresAreMuSweeps:
    # figure, its files, and the sweep flags of each column of every file
    @pytest.mark.parametrize("which, columns", [
        ("fig3", {"fig3.csv": {f"P_g{g:g}": ["--g", repr(g), "--state", "coherent:"]
                               for g in (1.0, 10.0, 100.0, 1000.0)}}),
        ("fig4", {"fig4.csv": {f"P_c{c:g}": ["--c", repr(c), "--state", "unbound:0,0"]
                               for c in (1.0, 3.0, 10.0, 30.0)}}),
        ("fig5", {f"fig5_g{g}.csv": {f"P{m}{n}": ["--g", g, "--state", f"number:{m},{n}"]
                                     for m in (0, 1, 2) for n in (0, 1, 2, 3)}
                  for g in ("1", "5")}),
        ("fig6", {f"fig6_g{g}.csv": {f"P_theta_{lbl}": ["--g", g, "--state", f"sup:{th}"]
                                     for lbl, th in (("0", "0"), ("pi_6", "pi/6"),
                                                     ("pi_3", "pi/3"))}
                  for g in ("1", "5")}),
    ])
    def test_each_column_is_the_mu1_sweep(self, tmp_path, capsys, which, columns):
        assert cli.run(["figure", which, "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        for name, sweeps in columns.items():
            figure = _cells((tmp_path / name).read_text().splitlines()[1:])
            for column, flags in sweeps.items():
                _, lines = run_table(capsys, ["sweep", "--param", "mu1",
                                              "--range", "0.01:0.99:99", *flags])
                sweep = _cells(lines)
                assert figure["mu1"] == sweep["mu1"]
                assert figure[column] == sweep["purity"], (name, column)

    def test_fig4_other_convention(self, tmp_path, capsys):
        assert cli.run(["figure", "fig4", "--outdir", str(tmp_path),
                        "--c-convention", "gamma-over-Gamma"]) == 0
        capsys.readouterr()
        figure = _cells((tmp_path / "fig4.csv").read_text().splitlines()[1:])
        for c in (3.0, 30.0):
            _, lines = run_table(capsys, ["sweep", "--param", "mu1", "--range",
                                          "0.01:0.99:99", "--c", repr(1.0 / c),
                                          "--state", "unbound:0,0"])
            assert figure[f"P_c{c:g}"] == _cells(lines)["purity"]


class TestFigureCommands:
    def test_fig3_curves(self, tmp_path, capsys):
        code = cli.run(["figure", "fig3", "--outdir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "fig3.csv"
        lines = path.read_text().splitlines()
        assert lines[1] == "mu1,P_g1,P_g10,P_g100,P_g1000"
        mid = [ln for ln in lines[2:] if ln.startswith("0.5,")][0]
        vals = list(map(float, mid.split(",")))
        assert vals[1] == pytest.approx(1.0, abs=1e-12)
        assert vals[2] == pytest.approx(2 * math.sqrt(10) / 11, abs=1e-12)

    def test_fig1_density_files(self, tmp_path):
        code = cli.run(["figure", "fig1", "--outdir", str(tmp_path),
                        "--points", "32"])
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["fig1_g10_mu0.25.csv", "fig1_g10_mu0.5.csv",
                         "fig1_g1_mu0.25.csv", "fig1_g1_mu0.5.csv"]
        body = (tmp_path / "fig1_g1_mu0.5.csv").read_text().splitlines()
        assert body[1] == "x1,x2,density"
        assert len(body) == 2 + 32 * 32

    @pytest.mark.parametrize("which", [f"fig{i}" for i in range(1, 8)])
    def test_one_table_format(self, tmp_path, capsys, which):
        assert cli.run(["figure", which, "--points", "16", "--outdir", str(tmp_path)]) == 0
        paths = capsys.readouterr().out.split()
        assert paths
        for path in paths:
            data = pathlib.Path(path).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")
            lines = data.decode().splitlines()
            assert lines[0].startswith("# params: ")
            assert isinstance(json.loads(lines[0][len("# params: "):]), dict)
            width = len(lines[1].split(","))
            assert len(lines) > 2
            assert all(len(ln.split(",")) == width for ln in lines[2:])

    def test_fig4_convention_flag(self, tmp_path):
        cli.run(["figure", "fig4", "--outdir", str(tmp_path / "a")])
        cli.run(["figure", "fig4", "--outdir", str(tmp_path / "b"),
                 "--c-convention", "gamma-over-Gamma"])
        text_a = (tmp_path / "a" / "fig4.csv").read_text()
        text_b = (tmp_path / "b" / "fig4.csv").read_text()
        assert "Gamma-over-gamma" in text_a
        assert "gamma-over-Gamma" in text_b
        assert text_a != text_b
        # c = 1 curve is convention independent
        a_rows = text_a.splitlines()[2:]
        b_rows = text_b.splitlines()[2:]
        for ra, rb in zip(a_rows, b_rows):
            assert ra.split(",")[1] == rb.split(",")[1]

    def test_fig5_fig6_headers(self, tmp_path):
        assert cli.run(["figure", "fig5", "--outdir", str(tmp_path)]) == 0
        assert cli.run(["figure", "fig6", "--outdir", str(tmp_path)]) == 0
        f5 = (tmp_path / "fig5_g5.csv").read_text().splitlines()
        assert f5[1].startswith("mu1,P00,P01,P02,P03,P10")
        f6 = (tmp_path / "fig6_g1.csv").read_text().splitlines()
        assert f6[1] == "mu1,P_theta_0,P_theta_pi_6,P_theta_pi_3"

    def test_fig7_anchor_row(self, tmp_path):
        assert cli.run(["figure", "fig7", "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig7_g1_mu0.5.csv").read_text().splitlines()
        assert lines[1] == "gamma1,gamma2,jmax,kmax,purity,abs_error"
        rows = [ln.split(",") for ln in lines[2:]]
        anchor = [r for r in rows
                  if r[2] == "1" and abs(float(r[0]) - 1 / math.sqrt(2)) < 1e-12
                  and abs(float(r[1]) - 1 / math.sqrt(2)) < 1e-12]
        assert len(anchor) == 1
        assert float(anchor[0][5]) < 1e-10
        assert len({(r[0], r[1]) for r in rows}) == 4


class TestOracleCompare:
    def test_table_and_threshold(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = cli.run(["oracle-compare", "-o", str(out), "--n-points", "512"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "case,method_purity,oracle_purity,abs_diff"
        assert len(lines) >= 2 + 12
        for ln in lines[2:]:
            assert float(ln.rsplit(",", 1)[1]) <= 1e-6

    def test_rows_are_criterion_5s(self, capsys, monkeypatch):
        real, seen = acceptance.oracle_residuals, []

        def recorded(spec):
            seen.append(real(spec))
            return seen[-1]

        monkeypatch.setattr(acceptance, "oracle_residuals", recorded)
        assert acceptance.criterion_5_oracle_equivalence()[0]
        assert [len(seen), len(seen[0])] == [1, len(acceptance.oracle_cases())]
        assert cli.run(["oracle-compare"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            ",".join([label, *map(cli._fmt, values)]) for (label, *values) in seen[0]]


class TestOracleSpectrum:
    @pytest.fixture
    def spectra(self, monkeypatch):
        real = grid._spectrum
        calls = []

        def counted(G, total):
            calls.append(G.shape)
            return real(G, total)

        monkeypatch.setattr(grid, "_spectrum", counted)
        return calls

    def test_purity_reads_the_spectrum_once(self, capsys, spectra):
        code, rec = run_json(capsys, ["purity", "--g", "1.7", "--mu1", "0.37", "--state",
                                      "number:2,1", "--method", "oracle", "--n-points", "128"])
        assert code == 0 and spectra == [(128, 128)]
        sys_ = OscillatorSystem.from_dimensionless(1.7, 0.37)
        W = grid._sample(sys_, NumberState(2, 1), grid.GridSpec(128, 8.0))[2]
        _, purity, entropy = grid.schmidt_from_samples(W)
        assert (rec["purity"], rec["entropy"]) == (purity, entropy)

    def test_sweep_and_oracle_compare_never_read_it(self, tmp_path, spectra):
        assert cli.run(["sweep", "--method", "oracle", "--param", "mu1", "--range",
                        "0.2:0.8:3", "--g", "2", "--state", "number:1,1",
                        "-o", str(tmp_path / "s.csv")]) == 0
        assert cli.run(["oracle-compare", "-o", str(tmp_path / "o.csv")]) == 0
        assert spectra == []


class TestOracleSizing:
    @pytest.mark.parametrize("g, mu1, state", [
        ("0.2", "0.01", "number:2,2"),
        ("0.2", "0.01", "number:3,1"),
        ("0.3", "0.01", "number:3,1"),
        ("0.2", "0.01", "sup:pi/3"),
        ("0.05", "0.001", "number:2,2"),
    ])
    def test_small_g_with_a_light_particle(self, capsys, g, mu1, state):
        code, rec = run_json(capsys, ["purity", "--g", g, "--mu1", mu1, "--state", state,
                                      "--method", "oracle"])
        assert code == 0
        ref = acceptance.method_purity(OscillatorSystem.from_dimensionless(float(g), float(mu1)),
                                       cli.parse_state(state))
        assert abs(rec["purity"] - ref) <= 1e-12

    def test_coarse_explicit_grid_exits_two_through_the_grid_defect(self, capsys):
        assert cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", "number:2,2",
                        "--method", "oracle", "--n-points", "48"]) == 2
        err = capsys.readouterr().err
        assert "grid defect" in err and "norm defect" not in err

    def test_norm_defect_names_both_remedies(self, capsys):
        with pytest.warns(RuntimeWarning, match="norm"):
            code = cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", "number:2,2",
                            "--method", "oracle", "--n-points", "32"])
        assert code == 2
        err = capsys.readouterr().err
        assert "norm defect" in err and "--extent" in err and "--n-points" in err

    def test_sized_grid_above_the_cap_exits_three_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            assert cli.run(["purity", "--g", "1e6", "--mu1", "0.5", "--state", "number:4,4",
                            "--method", "oracle"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert "lower the grid points" in capsys.readouterr().err

    def test_unresolvable_width_exits_three(self, capsys):
        # gamma overflows to inf, so no finite grid resolves the relative coordinate
        assert cli.run(["purity", "--m1", "1", "--m2", "1", "--omega", "1e300", "--Omega", "1",
                        "--hbar", "1e-300", "--state", "number:0,0", "--method", "oracle"]) == 3
        assert "unboundedly many points" in capsys.readouterr().err

    def test_oracle_compare_at_the_sized_grid(self, capsys):
        assert cli.run(["oracle-compare"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0][len("# params: "):]) == {"extent": 8.0, "n_points": None}
        assert len(lines) == 2 + len(acceptance.oracle_cases())
        for ln in lines[2:]:
            assert float(ln.rsplit(",", 1)[1]) <= 1e-12


class TestSelftest:
    def test_single_criterion(self, capsys):
        assert cli.run(["selftest", "--criteria", "1,6"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[PASS] criterion  1 (")
        assert lines[0].split(" s): ", 1)[1].startswith(
            "g = 1 coherent purity equals 1 -- max |P-1| = ")

    def test_json_lines(self, capsys):
        assert cli.run(["selftest", "--criteria", "1,6", "--json"]) == 0
        records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert [r["number"] for r in records] == [1, 6]
        for r, (num, title, _) in zip(records, [acceptance.CRITERIA[0], acceptance.CRITERIA[5]]):
            assert set(r) == {"number", "title", "ok", "seconds", "detail"}
            assert r["title"] == title and r["ok"] is True
            assert r["seconds"] >= 0.0 and r["detail"]

    @pytest.mark.parametrize("criteria, unknown", [("99", "99"), ("1,99", "99"),
                                                   ("0,1,13", "0, 13")])
    def test_unknown_criteria_exit_one_before_running_any(self, capsys, criteria, unknown):
        assert cli.run(["selftest", "--criteria", criteria]) == 1
        assert capsys.readouterr() == ("", f"error: no criterion numbered {unknown}\n")

    @pytest.mark.parametrize("criteria", ["a", "1,", "1;6"])
    def test_malformed_criteria_name_the_flag(self, capsys, criteria):
        assert cli.run(["selftest", "--criteria", criteria]) == 1
        assert capsys.readouterr() == (
            "", f"error: --criteria takes comma-separated criterion numbers, got {criteria!r}\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_failure_exits_two(self, monkeypatch, capsys, flags):
        monkeypatch.setattr(acceptance, "CRITERIA",
                            [(1, "always fails", lambda: (False, "synthetic"))])
        assert cli.run(["selftest"] + flags) == 2
        out = capsys.readouterr().out
        assert "synthetic" in out
        if flags:
            assert json.loads(out)["ok"] is False
        else:
            assert out.startswith("[FAIL] criterion  1 (")


class TestParser:
    def test_one_parser_per_process_gives_fresh_results(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 4.0, "mu1": 0.5, "method": "analytic"}))
        commands = [
            ["sweep", "--g", "2", "--mu1", "0.3", "--param", "theta", "--range", "0:1:3"],
            ["purity", "--g", "1", "--state", "number:0,1"],
            ["purity", "--config", str(cfg), "--state", "coherent:"],
        ]
        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append((cli.run(argv), capsys.readouterr()))
        assert [code for code, _ in fresh] == [0, 1, 0]
        cli._build_parser.cache_clear()
        assert [(cli.run(argv), capsys.readouterr()) for argv in commands] == fresh
        assert cli._build_parser() is cli._build_parser()

    def test_rebound_command_runs_with_a_built_parser(self, monkeypatch):
        cli._build_parser()
        monkeypatch.setattr(cli, "_cmd_selftest", lambda args: 7)
        assert cli.run(["selftest"]) == 7


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 4.0, "mu1": 0.5, "state": "coherent:",
                                   "method": "analytic"}))
        code, rec = run_json(capsys, ["purity", "--config", str(cfg),
                                      "--state", "number:0,1", "--method", "exact"])
        assert code == 0
        # g/mu1 from config, state/method from the command line
        assert rec["state"] == "number:0,1"
        assert rec["method"] == "exact"
        assert rec["system"]["g"] == 4.0

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert cli.run(["purity", "--config", str(cfg), "--g", "1",
                        "--mu1", "0.5", "--state", "number:0,1"]) == 1
        assert cli.run(["purity", "--config", str(tmp_path / "missing.json"),
                        "--g", "1", "--mu1", "0.5", "--state", "number:0,1"]) == 1

    def test_wrong_typed_config_value_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": "4.0", "mu1": 0.5}))
        assert cli.run(["purity", "--config", str(cfg),
                        "--state", "number:0,1"]) == 1

    @pytest.mark.parametrize("values, word", [
        ({"jmax": "abc"}, "jmax"),
        ({"bogus": 1}, "bogus"),
        ({"n_points": 100.5}, "n_points"),
        ({"n-points": True}, "n-points"),
        ({"method": "svd"}, "method"),
        ({"g": [1, 2]}, "'g'"),
        ([{"g": 2}], "JSON object"),
    ])
    def test_config_values_go_through_the_parser(self, tmp_path, capsys, values, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert cli.run(["purity", "--config", str(cfg), "--g", "2", "--mu1", "0.3",
                        "--state", "number:1,1", "--method", "fock"]) == 1
        err = capsys.readouterr().err
        assert word in err
        assert "not supported between" not in err and "cannot be interpreted" not in err

    def test_config_null_points_size_the_grid(self, tmp_path, capsys):
        argv = ["purity", "--g", "2", "--mu1", "0.3", "--state", "number:1,1",
                "--method", "oracle"]
        assert cli.run(argv) == 0
        sized = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        for value, expect in ((None, sized), (96, None)):
            cfg.write_text(json.dumps({"n_points": value}))
            assert cli.run(argv + ["--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            if expect is None:
                assert cli.run(argv + ["--n-points", "96"]) == 0
                expect = capsys.readouterr().out
                assert expect != sized
            assert out == expect

    @pytest.mark.parametrize("flag", [["--jm", "20"], ["--jmax=20"], ["--jm=20"]])
    def test_any_spelling_of_a_flag_beats_config(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jmax": 4}))
        code, rec = run_json(capsys, ["purity", "--config", str(cfg), "--g", "2",
                                      "--mu1", "0.3", "--state", "number:1,1",
                                      "--method", "fock"] + flag)
        assert code == 0
        assert rec["basis"]["jmax"] == 20 and rec["basis"]["kmax"] == 20

    def test_short_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": str(tmp_path / "from_config.json")}))
        out = tmp_path / "explicit.json"
        assert cli.run(["purity", "--config", str(cfg), "-o", str(out), "--g", "1",
                        "--mu1", "0.5", "--state", "number:0,1"]) == 0
        assert out.exists() and not (tmp_path / "from_config.json").exists()

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "number:1,1", "g": 2, "mu1": 0.3}))
        assert cli.run(["purity", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert cli.run(["purity", "--state", "number:1,1", "--g", "2", "--mu1", "0.3"]) == 0
        assert from_config == capsys.readouterr().out
        cfg.write_text(json.dumps({"param": "mu1", "range": "0.2:0.8:3", "g": 2,
                                   "state": "number:1,1"}))
        assert cli.run(["sweep", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert cli.run(["sweep", "--param", "mu1", "--range", "0.2:0.8:3", "--g", "2",
                        "--state", "number:1,1"]) == 0
        assert from_config == capsys.readouterr().out

    @pytest.mark.parametrize("argv, values, missing", [
        (["purity"], {"g": 2, "mu1": 0.3}, "--state"),
        (["purity"], {"g": 2, "mu1": 0.3, "state": None}, "--state"),
        (["sweep"], {"g": 2}, "--param, --range"),
        (["sweep", "--param", "mu1"], {"g": 2}, "--range"),
        (["sweep"], {"range": "0.2:0.8:3", "g": 2}, "--param"),
    ])
    def test_required_flag_missing_from_both_exits_one(self, tmp_path, capsys, argv,
                                                       values, missing):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert cli.run(argv + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the following arguments are required: {missing}\n"
        assert cli.run(argv + ["--g", "2", "--mu1", "0.3"]) == 1
        assert "required: --" in capsys.readouterr().err
