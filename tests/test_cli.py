import argparse
import dataclasses
import json
import math
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest

from oscillent import (Coherent, NumberState, OscillatorSystem, Superposition,
                       UnboundGaussian, acceptance, cli, fock, grid)
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
        sys_ = OscillatorSystem.from_dimensionless(5.0, 0.3)
        for literal, theta in [("-pi", -math.pi), ("2*pi/3", 2 * math.pi / 3)]:
            code, rec = run_json(capsys, ["purity", "--g", "5", "--mu1", "0.3",
                                          "--state", f"sup:{literal}"])
            assert code == 0
            assert rec["purity"] == acceptance.method_purity(sys_,
                                                             Superposition.two_mode_mix(theta))

    @pytest.mark.parametrize("literal, message", [
        ("inf", "theta must be finite, got inf"),
        ("nan", "theta must be finite, got nan"),
        ("pi/0", "angle 'pi/0' divides by zero"),
        ("2*pi/1e-400", "angle '2*pi/1e-400' divides by zero"),
    ])
    def test_angle_refusals_name_the_angle(self, capsys, literal, message):
        assert cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", f"sup:{literal}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("state", [
        NumberState(2, 3), Coherent(), Coherent(0.7 + 0.4j, -0.3 + 1.1j),
        UnboundGaussian(3, 0.1), UnboundGaussian(0, 1e300),
        Superposition(((0, 1, 0.6), (1, 0, 0.8j))), Superposition.two_mode_mix(math.pi / 7),
    ], ids=repr)
    def test_a_state_label_parses_back_to_its_state(self, state):
        assert cli.parse_state(cli._state_label(state)) == state

    def test_spreading_packet_on_a_trapped_system_is_refused_in_one_wording(self, capsys):
        errors = set()
        for state, method in [("unbound:1,2", "exact"), ("unbound:0,2", "exact"),
                              ("unbound:0,2", "analytic"), ("unbound:1,2", "oracle")]:
            assert cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", state,
                            "--method", method]) == 1
            errors.add(capsys.readouterr().err)
        assert errors == {"error: the spreading packet needs an untrapped system (Omega = 0)\n"}

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

    def test_negative_truncation_exits_one_naming_it(self, capsys):
        assert cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", "number:1,1",
                        "--method", "fock", "--jmax", "-1"]) == 1
        assert capsys.readouterr().err == "error: jmax must be a nonnegative integer, got -1\n"

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

    # pi/0 and 2*pi/1e-400 are angle literals whose value would divide by zero
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "pi/0", "2*pi/1e-400"])
    def test_non_finite_parameter_exits_one(self, capsys, value):
        def refused(argv):
            code = cli.run(argv)
            out, err = capsys.readouterr()
            return (code, out, err.startswith("error: "), err.count("\n")) == (1, "", True, 1)

        assert refused(["purity", "--g", value, "--mu1", "0.3", "--state", "number:0,1"])
        assert refused(["purity", "--g", "2", "--mu1", "0.3", "--state", "number:0,1",
                        "--method", "fock", "--gamma1", value, "--gamma2", "1"])
        assert refused(["purity", "--m1", "1", "--m2", "2", "--omega", "3",
                        "--Omega", value, "--state", "number:0,1"])
        assert refused(["purity", "--g", "2", "--mu1", "0.3", "--state", "number:0,1",
                        "--method", "oracle", "--extent", value])
        assert refused(["sweep", "--g", "2", "--mu1", "0.3", "--param", "theta",
                        "--range", f"0:{value}:3"])
        for method in ("analytic", "exact", "fock", "oracle"):
            for state in (f"coherent:{value},0", f"sup:{value}",
                          f"superposition:0,1,0.6;1,0,{value}"):
                assert refused(["purity", "--g", "2", "--mu1", "0.3", "--state", state,
                                "--method", method]), (state, method)

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

    def test_usage_errors_exit_one(self, capsys):
        assert cli.run(["purity", "--g", "1", "--state", "number:0,1"]) == 1
        assert cli.run(["purity", "--g", "1", "--mu1", "0.5",
                        "--state", "nonsense:1"]) == 1
        assert cli.run(["purity", "--g", "0", "--mu1", "0.5",
                        "--state", "number:0,1"]) == 1
        assert cli.run(["nonexistent-command"]) == 1
        capsys.readouterr()
        # each refusal with its own message
        for argv, words in [
            (["purity", "--c", "2", "--state", "unbound:0,1"], "--c/--gamma need --mu1"),
            (["purity", "--m1", "1", "--m2", "2", "--omega", "3", "--state", "number:0,1"],
             "physical gauge needs --Omega"),
            (["purity", "--mu1", "0.3", "--state", "number:0,1"], "specify a system: --g/--mu1, "
             "--c/--gamma/--mu1, or --m1/--m2/--omega/--Omega"),
            (["purity", "--g", "2", "--mu1", "0.3", "--state", "number:0,1", "--method", "fock",
              "--gamma1", "1"], "pass both --gamma1 and --gamma2 or neither"),
            (["sweep", "--param", "g", "--range", "0:10:5", "--scale", "log", "--mu1", "0.3"],
             "log scale needs positive endpoints"),
            (["purity", "--g", "2", "--mu1", "0.3", "--state", "sup:tau"],
             "cannot parse angle 'tau'"),
        ]:
            assert cli.run(argv) == 1
            assert capsys.readouterr().err == f"error: {words}\n", argv

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


class TestSweepDispatch:
    """Only an exact sweep runs on the pool; either way the table is the
    points computed one by one."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        return made

    @pytest.mark.parametrize("method, param, rng, flags, point, pooled", [
        ("fock", "mu1", "0.2:0.8:3", ["--g", "5", "--state", "number:2,2", "--jmax", "40"],
         lambda v: (OscillatorSystem.from_dimensionless(5.0, v), NumberState(2, 2)), False),
        ("oracle", "g", "1:4:3", ["--mu1", "0.3", "--state", "number:1,1"],
         lambda v: (OscillatorSystem.from_dimensionless(v, 0.3), NumberState(1, 1)), False),
        ("exact", "mu1", "0.2:0.8:3", ["--g", "5", "--state", "number:1,1"],
         lambda v: (OscillatorSystem.from_dimensionless(5.0, v), NumberState(1, 1)), True),
        ("exact", "theta", "0:3:9", ["--g", "1", "--mu1", "0.4"],
         lambda v: (OscillatorSystem.from_dimensionless(1.0, 0.4),
                    Superposition.two_mode_mix(v)), True),
        ("exact", "tau", "0:8:3", ["--c", "2", "--mu1", "0.3", "--state", "unbound:2,0"],
         lambda v: (OscillatorSystem.from_untrapped(0.3, c=2.0), UnboundGaussian(2, v)), True),
        ("exact", "mu1", "0.2:0.8:2", ["--g", "5", "--state", "number:4,4"],
         lambda v: (OscillatorSystem.from_dimensionless(5.0, v), NumberState(4, 4)), True),
        ("analytic", "g", "1:4:3", ["--mu1", "0.3", "--state", "number:0,0"],
         lambda v: (OscillatorSystem.from_dimensionless(v, 0.3), NumberState(0, 0)), False),
    ], ids=["fock", "oracle", "exact-light", "theta", "tau", "exact-heavy", "analytic"])
    def test_pool_only_for_exact_sweeps(self, capsys, pools, method, param, rng, flags,
                                             point, pooled):
        assert cli.run(["sweep", "--method", method, "--param", param, "--range", rng,
                        *flags]) == 0
        table = capsys.readouterr().out.splitlines(keepends=True)[2:]
        assert pools == ([{"max_workers": cli._threads()}] if pooled else [])
        start, stop, count = rng.split(":")
        args = argparse.Namespace(jmax=40, kmax=40, gamma1=None, gamma2=None, n_points=None,
                                  extent=grid.GridSpec.extent_sigmas)
        expected = []
        for v in np.linspace(float(start), float(stop), int(count)).tolist():
            purity = cli.compute_purity(*point(v), method, args, entropy=False)["purity"]
            expected.append(f"{cli._fmt(v)},{cli._fmt(purity)}\n")
        assert "".join(table) == "".join(expected)


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
        rows, worst = seen[0]
        assert [len(seen), len(rows)] == [1, len(acceptance.oracle_cases())]
        assert worst == max(diff for (*_, diff) in rows)
        assert cli.run(["oracle-compare"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            ",".join([label, *map(cli._fmt, values)]) for (label, *values) in rows]

    def test_a_nan_residual_fails_the_gate(self, capsys, monkeypatch):
        real = grid.schmidt_analyze
        _, first_sys, first_state = acceptance.oracle_cases()[0]

        def nan_for_the_first_case(sys_, state, spec):
            res = real(sys_, state, spec)
            if (sys_, state) == (first_sys, first_state):
                return dataclasses.replace(res, purity=math.nan)
            return res

        monkeypatch.setattr(grid, "schmidt_analyze", nan_for_the_first_case)
        rows, worst = acceptance.oracle_residuals(grid.GridSpec())
        assert math.isnan(rows[0][3]) and math.isnan(worst)
        assert not acceptance.criterion_5_oracle_equivalence()[0]
        assert cli.run(["oracle-compare"]) == 2
        assert capsys.readouterr().err == (
            "error: worst method-vs-oracle residual nan exceeds 1e-06\n")


class TestOracleSpectrum:
    @pytest.fixture
    def spectra(self, monkeypatch):
        """The orders of the pivoted factors taken, and the calls that read a
        spectrum off them."""
        calls = {"cholesky": [], "spectra": 0}
        cholesky, spectra = grid._cholesky, grid._spectra

        def counted_cholesky(column, d, total, dtype):
            calls["cholesky"].append(d.shape[0])
            return cholesky(column, d, total, dtype)

        def counted_spectra(*args):
            calls["spectra"] += 1
            return spectra(*args)

        monkeypatch.setattr(grid, "_cholesky", counted_cholesky)
        monkeypatch.setattr(grid, "_spectra", counted_spectra)
        return calls

    def test_purity_reads_the_spectrum_once(self, capsys, spectra):
        # one factor for each of the odd state's two parity blocks, taken
        # when the spectrum is read
        self.check_one_read(capsys, spectra, 128, False, [64, 64])

    def test_an_oversampled_purity_reads_the_spectrum_once(self, capsys, spectra):
        # 3.6 times the sized 144 points: the blocks and the 256^2 coarse
        # grid are factored for their purities, and the spectrum reuses them
        self.check_one_read(capsys, spectra, 512, True, [256, 256, 256])

    @staticmethod
    def check_one_read(capsys, spectra, n, factor, orders):
        code, rec = run_json(capsys, ["purity", "--g", "1.7", "--mu1", "0.37", "--state",
                                      "number:2,1", "--method", "oracle", "--n-points", str(n)])
        assert code == 0 and spectra == {"cholesky": orders, "spectra": 1}
        sys_ = OscillatorSystem.from_dimensionless(1.7, 0.37)
        W = grid._sample(sys_, NumberState(2, 1), grid.GridSpec(n, 8.0), fold=True)[2]
        blocks, total, purity, _ = grid._scaled(W, fold=True, factor=factor)
        factors = blocks if factor else tuple(grid._gram_factor(G, total) for G in blocks)
        entropy = grid._spectra(factors, total, n)[1]
        assert (rec["purity"], rec["entropy"]) == (purity, entropy)

    def test_sweep_and_oracle_compare_never_read_it(self, tmp_path, spectra):
        assert cli.run(["sweep", "--method", "oracle", "--param", "mu1", "--range",
                        "0.2:0.8:3", "--g", "2", "--state", "number:1,1",
                        "-o", str(tmp_path / "s.csv")]) == 0
        assert cli.run(["oracle-compare", "-o", str(tmp_path / "o.csv")]) == 0
        assert spectra == {"cholesky": [], "spectra": 0}
        # an oversampled sweep factors each point's grids for their purities
        # and reads no spectrum either
        assert cli.run(["sweep", "--method", "oracle", "--param", "mu1", "--range",
                        "0.2:0.8:3", "--g", "2", "--state", "number:1,1", "--n-points", "512",
                        "-o", str(tmp_path / "f.csv")]) == 0
        assert len(spectra["cholesky"]) == 9 and spectra["spectra"] == 0


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
        # one error line and no warning (the suite turns warnings into errors)
        code = cli.run(["purity", "--g", "5", "--mu1", "0.3", "--state", "number:2,2",
                        "--method", "oracle", "--n-points", "32"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid norm defect") and err.count("\n") == 1
        assert "extent_sigmas" in err and "n_points" in err and "--" not in err

    @pytest.mark.parametrize("argv", [
        ["--g", "5", "--mu1", "0.3", "--state", "coherent:", "--extent", "4"],
        ["--g", "1", "--mu1", "0.5", "--state", "number:2,2", "--n-points", "36"],
    ], ids=["coherent-extent-4", "2,2-36-points"])
    def test_norm_defect_below_the_old_bound_exits_two(self, capsys, argv):
        # norm defects of 8.4e-5 and 5.0e-4 with grid defects of at most 1.6e-7:
        # these printed 0.7734762989511327 (exact 0.7733602811121824) and
        # 0.343719665917207 (exact 0.34375), more than 1e-6 off, under a norm
        # bound of 1e-3
        assert cli.run(["purity", *argv, "--method", "oracle"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: grid norm defect") and "exceeds 6e-7" in err
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("criteria", ["a", "1,", "1;6", ""])
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


class TestRecordsStayJSON:
    def test_trap_whose_g_overflows_is_a_usage_error(self, capsys):
        # this printed "g": Infinity, which is not JSON
        assert cli.run(["purity", "--m1", "1", "--m2", "1", "--omega", "1e300", "--Omega", "1e-300",
                        "--state", "number:0,0", "--method", "analytic"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: g = omega / OmegaTrap leaves the float range at omega = 1e+300, "
                       "OmegaTrap = 1e-300\n")

    @pytest.mark.parametrize("c", ["1e-300", "1e300"])
    def test_c_whose_omega_leaves_the_float_range_is_named(self, capsys, c):
        # these named omega, which the c gauge derives
        assert cli.run(["purity", "--c", c, "--mu1", "0.5", "--state", "unbound:1,1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: c = {float(c)!r} puts") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, names", [
        (["--gamma", "1e-10", "--Gamma", "1e300", "--mu1", "0.5"],
         "Gamma = 1e+300, gamma = 1e-10"),
        (["--m1", "1", "--m2", "1", "--omega", "1e-300", "--Omega", "0", "--Gamma", "1e300"],
         "Gamma = 1e+300, gamma = 7.071067811865476e-151"),
    ], ids=["c-gauge", "physical-gauge"])
    def test_c_that_overflows_is_a_usage_error(self, capsys, argv, names):
        # these exited 1 with json's "Out of range float values are not JSON
        # compliant", which names no input
        assert cli.run(["purity", *argv, "--state", "unbound:0,1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: c = Gamma / gamma leaves the float range at {names}\n"

    def test_non_finite_values_are_not_written(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            cli._emit_json({"purity": math.nan}, None)
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            cli._write_csv(str(path), {"g": math.inf}, ["x"], [])
        assert not path.exists() and capsys.readouterr().out == ""


class TestOneRuleForANumericalFailure:
    """Overflow, an invalid value, a division by zero and a failed
    linear-algebra routine each end a command with one error line.  The
    suite turns a warning into an exception that cli.run does not catch, so
    a warning from any thread fails these tests."""

    @pytest.mark.parametrize("argv, code, text", [
        (["sweep", "--method", "fock", "--param", "g", "--range", "1e199:1e200:2",
          "--mu1", "0.5", "--state", "number:1,1"], 2, "floating-point failure"),
        (["purity", "--method", "fock", "--g", "1e200", "--mu1", "0.5",
          "--state", "number:1,1"], 2, "floating-point failure"),
        # gamma underflows to 0 in the system, so no rescale of the
        # generator's entries recovers it
        (["purity", "--m1", "1", "--m2", "1", "--omega", "1e-300", "--Omega", "1",
          "--hbar", "1e300", "--state", "number:1,1"], 2, "leave the float range"),
        (["purity", "--method", "fock", "--g", "5", "--mu1", "0.3", "--state", "number:0,1",
          "--gamma1", "1e300", "--gamma2", "1"], 2, "floating-point failure"),
        (["purity", "--g", "1e-300", "--mu1", "1e-300", "--state", "number:1,1"], 2,
         "leave the float range"),
        # an exact sweep: its points fail in the pool's threads
        (["sweep", "--param", "g", "--range", "1e-300:1e-299:2", "--mu1", "1e-300",
          "--state", "number:1,1"], 2, "leave the float range"),
        # caps whose byte count would overflow a float while the message is formatted
        (["purity", "--method", "oracle", "--g", "5", "--mu1", "0.3", "--state", "number:0,1",
          "--extent", "1e300"], 3, "MiB budget"),
        (["purity", "--method", "oracle", "--g", "5", "--mu1", "0.3", "--state", "number:0,1",
          "--n-points", "1" + "0" * 200], 3, "MiB budget"),
        # spreading packets that the exact route answers (see below) but whose
        # oracle grid cannot be sized: its window-to-width ratio overflows
        (["purity", "--method", "oracle", "--c", "2", "--mu1", "0.5", "--state",
          "unbound:1,1e8"], 3, "MiB budget"),
        (["purity", "--method", "oracle", "--c", "2", "--mu1", "0.5", "--state",
          "unbound:1,1e200"], 3, "unboundedly many points"),
    ], ids=["fock-sweep", "fock-g", "hbar", "gamma1", "exact-g",
            "pooled-sweep", "cap-extent", "cap-points", "unbound-1e8", "unbound-1e200"])
    def test_one_error_line(self, capsys, argv, code, text):
        assert cli.run(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and text in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, ref", [
        (["--c", "2", "--mu1", "0.5", "--state", "unbound:1,1e8"], 1.4999999999999995e-08),
        (["--c", "2", "--mu1", "0.5", "--state", "unbound:1,1e200"], 1.5000000000000000454e-200),
        (["--c", "1e-5", "--mu1", "0.5", "--state", "unbound:1,1"], 5.3033008587444276e-06),
    ], ids=["unbound-1e8", "unbound-1e200", "unbound-c-1e-5"])
    def test_spreading_packets_past_the_old_condition_bound(self, capsys, argv, ref):
        # these exited 2 while the packet's generator came from inverting its
        # 4x4 kernel form, whose condition number exceeded 1e10; the
        # references are 1000-digit mpmath evaluations of the same integral
        code, rec = run_json(capsys, ["purity", *argv])
        assert code == 0
        assert rec["purity"] == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("argv, ref_argv", [
        (["--m1", "1", "--m2", "1", "--omega", "1", "--Omega", "1", "--hbar", "1e300"],
         ["--m1", "1", "--m2", "1", "--omega", "1", "--Omega", "1"]),
        (["--g", "1e300", "--mu1", "0.3"], ["--g", "1e-300", "--mu1", "0.3"]),
    ], ids=["hbar-1e300", "g-1e300"])
    def test_exact_purities_at_the_float_range(self, capsys, argv, ref_argv):
        # these exited 2 while the generator's entries were taken from gamma
        # and Gamma themselves; hbar does not enter a purity, and g <-> 1/g
        # is a symmetry
        code, rec = run_json(capsys, ["purity", *argv, "--state", "number:1,1"])
        ref_code, ref = run_json(capsys, ["purity", *ref_argv, "--state", "number:1,1"])
        assert code == ref_code == 0
        assert 0.0 < rec["purity"] == pytest.approx(ref["purity"], rel=1e-14, abs=0)

    def test_pool_threads_carry_the_rule(self, monkeypatch, tmp_path):
        # each point records the thread it runs in and that thread's error state
        seen = []

        def record(*args, **kwargs):
            seen.append((threading.current_thread(), np.geterr()))
            return {"purity": 0.5}

        monkeypatch.setattr(cli, "compute_purity", record)
        assert cli.run(["sweep", "--param", "g", "--range", "1:2:8", "--mu1", "0.5",
                        "--state", "number:1,1", "-o", str(tmp_path / "s.csv")]) == 0
        assert len(seen) == 8
        assert all(thread is not threading.main_thread() for (thread, _) in seen)
        assert all(state == {"divide": "raise", "over": "raise", "under": "ignore",
                             "invalid": "raise"} for (_, state) in seen)

    def test_rule_ends_with_the_command(self):
        before = np.geterr()
        cli.run(["purity", "--g", "1e300", "--mu1", "0.5", "--state", "number:1,1"])
        assert np.geterr() == before
