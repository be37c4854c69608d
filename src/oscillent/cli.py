"""Command-line frontend.

Subcommands
-----------
purity          single evaluation, JSON record on stdout or to a file
covariance      covariance matrix, standard form, squeezing, log-negativity
sweep           one-parameter sweep to CSV
figure          reference figure datasets (fig1 .. fig7)
oracle-compare  method-vs-oracle residual table
selftest        run the acceptance criteria

Exit codes: 0 success, 1 usage error, 2 numerical-consistency failure,
3 resource cap exceeded.  Every command runs under one floating-point rule:
an overflow, an invalid value or a division by zero, in numpy or in Python
arithmetic, and a failed linear-algebra routine stop the command with exit 2
and one ``error:`` line; underflow stays silent.  The rule is numpy's error
state, which is per thread, so each pooled sweep point sets it again.

This is the only module that reads flags or writes files, and every table
goes through one writer.  Every emitted file is deterministic byte for byte
for identical inputs.

A command names its system in one gauge (--g, --c/--gamma, or
--m1/--m2/--omega/--Omega), and :func:`build_system` builds it.  A sweep
point is the purity command with the swept value set, and the sweep's
``# params:`` line records every flag that built it.  Each column of
fig3-fig6 is a mu1 sweep over 0.01:0.99:99, byte for byte.

An exact sweep fans out over a pool of up to four threads, one block of
points at a time; every other sweep evaluates its points in order in the
calling thread.  Either way results are written in input order.
A JSON file passed as --config supplies defaults for any flag, required
ones included; a flag on the command line wins in any spelling.  Config
values go through the flag's own type and choices, null stands for the
flag's default, and an unknown key is a usage error.  The oracle grid is
sized from the state unless --n-points is given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys as _sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import acceptance, fock, gaussian, grid
from .errors import DomainError, NumericalConsistencyError, OscillentError, ResourceCapError
from .system import Coherent, NumberState, OscillatorSystem, Superposition, UnboundGaussian

__all__ = ["main", "run"]


class _UsageError(DomainError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_angle(text: str) -> float:
    """Angle literal: a float, or pi expressions like pi/6, 2*pi/3, -pi."""
    t = text.strip().replace(" ", "")
    try:
        return float(t)
    except ValueError:
        pass
    sign = 1.0
    if t.startswith("-"):
        sign, t = -1.0, t[1:]
    num, den = 1.0, 1.0
    if "/" in t:
        t, d = t.split("/", 1)
        den = float(d)
    if "*" in t:
        n, t = t.split("*", 1)
        num = float(n)
    if t != "pi":
        raise _UsageError(f"cannot parse angle {text!r}")
    if den == 0:
        raise _UsageError(f"angle {text!r} divides by zero")
    return sign * num * math.pi / den


def parse_state(text: str):
    """State literal -> StateSpec.

    number:M,N | coherent:ALPHA,BETA | unbound:M,TAU | sup:THETA |
    superposition:M,N,C;M,N,C;...  (complex numbers use Python syntax, 1+2j)
    """
    kind, _, rest = text.partition(":")
    try:
        if kind == "number":
            m, n = rest.split(",")
            return NumberState(int(m), int(n))
        if kind == "coherent":
            if not rest:
                return Coherent()
            a, b = rest.split(",")
            return Coherent(complex(a), complex(b))
        if kind == "unbound":
            m, tau = rest.split(",")
            return UnboundGaussian(int(m), float(tau))
        if kind == "sup":
            return Superposition.two_mode_mix(_parse_angle(rest))
        if kind == "superposition":
            terms = []
            for chunk in rest.split(";"):
                m, n, c = chunk.split(",")
                terms.append((int(m), int(n), complex(c)))
            return Superposition(tuple(terms))
    except (ValueError, DomainError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise _UsageError(f"bad state literal {text!r}: {exc}") from exc
    raise _UsageError(f"unknown state kind {kind!r} in {text!r}")


def _state_label(state) -> str:
    if isinstance(state, NumberState):
        return f"number:{state.m},{state.n}"
    if isinstance(state, Coherent):
        return f"coherent:{state.alpha},{state.beta}"
    if isinstance(state, UnboundGaussian):
        return f"unbound:{state.m},{_fmt(state.tau)}"
    return "superposition:" + ";".join(f"{m},{n},{c}" for (m, n, c) in state.terms)


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _add_system_args(p: argparse.ArgumentParser):
    p.add_argument("--g", type=float, help="frequency ratio omega/Omega (dimensionless gauge)")
    p.add_argument("--mu1", type=float, help="mass fraction m1/(m1+m2)")
    p.add_argument("--c", type=float, help="untrapped scale ratio Gamma/gamma")
    p.add_argument("--gamma", type=float, help="untrapped relative-mode scale gamma")
    p.add_argument("--Gamma", type=float,
                   help="center-of-mass scale (c gauge, physical gauge at --Omega 0; default 1)")
    p.add_argument("--m1", type=float, help="mass of particle 1 (physical gauge)")
    p.add_argument("--m2", type=float, help="mass of particle 2 (physical gauge)")
    p.add_argument("--omega", type=float, help="relative-mode angular frequency (physical gauge)")
    p.add_argument("--Omega", type=float, help="trap angular frequency, 0 = untrapped (physical gauge)")
    p.add_argument("--hbar", type=float, help="action scale (physical gauge; default 1)")


_GAUGES = {"--g": ("g",), "--c/--gamma": ("c", "gamma"),
           "--m1/--m2/--omega/--Omega": ("m1", "m2", "omega", "Omega")}


def build_system(args) -> OscillatorSystem:
    """The system of the one gauge the flags name; flags of two gauges,
    --mu1 beside the physical gauge, or --Gamma or --hbar beside a gauge
    that does not read them are a usage error.  Gamma and hbar not given
    are 1."""
    given = [name for name, dests in _GAUGES.items()
             if any(getattr(args, d) is not None for d in dests)]
    if len(given) > 1:
        raise _UsageError(f"pass the flags of one gauge, not {' and '.join(given)}")
    Gamma = 1.0 if args.Gamma is None else args.Gamma
    hbar = 1.0 if args.hbar is None else args.hbar
    if args.g is not None:
        if args.mu1 is None:
            raise _UsageError("--g needs --mu1")
        if args.Gamma is not None or args.hbar is not None:
            raise _UsageError("the g gauge reads neither --Gamma nor --hbar")
        return OscillatorSystem.from_dimensionless(args.g, args.mu1)
    if args.c is not None or args.gamma is not None:
        if args.mu1 is None:
            raise _UsageError("--c/--gamma need --mu1")
        if args.hbar is not None:
            raise _UsageError("--hbar belongs to the physical gauge")
        return OscillatorSystem.from_untrapped(args.mu1, Gamma=Gamma, c=args.c, gamma=args.gamma)
    if given:
        missing = [n for n in ("m1", "m2", "omega", "Omega") if getattr(args, n) is None]
        if missing:
            raise _UsageError(f"physical gauge needs --{', --'.join(missing)}")
        if args.mu1 is not None:
            raise _UsageError("--mu1 belongs to the g and c gauges; the physical gauge "
                              "takes it from --m1/--m2")
        if args.Omega != 0:  # a trap derives its own Gamma; from_physical refuses one given
            Gamma = args.Gamma
        return OscillatorSystem.from_physical(args.m1, args.m2, args.omega, args.Omega,
                                              hbar=hbar, Gamma=Gamma)
    raise _UsageError("specify a system: --g/--mu1, --c/--gamma/--mu1, or --m1/--m2/--omega/--Omega")


def _system_params(sys: OscillatorSystem) -> dict:
    out = {"m1": sys.m1, "m2": sys.m2, "omega": sys.omega, "Omega": sys.Omega,
           "hbar": sys.hbar, "Gamma": sys.Gamma, "mu1": sys.mu1}
    if sys.is_trapped:
        out["g"] = sys.g
    else:
        out["c"] = sys.c
    return out


def _threads() -> int:
    return min(4, os.cpu_count() or 1)


def compute_purity(sys: OscillatorSystem, state, method: str, args, entropy: bool = True) -> dict:
    """Evaluate one purity with the requested method; returns a JSON-able record.

    With ``entropy=False`` the record has no entropy, and neither the fock
    nor the oracle route computes one."""
    record: dict = {"method": method, "state": _state_label(state),
                    "system": _system_params(sys)}
    if method in ("analytic", "exact"):
        record["purity"] = acceptance.method_purity(sys, state, method)
    elif method == "fock":
        if args.gamma1 is not None or args.gamma2 is not None:
            if args.gamma1 is None or args.gamma2 is None:
                raise _UsageError("pass both --gamma1 and --gamma2 or neither")
            basis = fock.BasisParams(args.gamma1, args.gamma2, args.jmax, args.kmax)
        else:
            basis = fock.default_basis(sys, jmax=args.jmax, kmax=args.kmax)
        rho = fock.reduced_density_truncated(sys, state, basis)
        record["purity"] = fock.purity_from_density(rho)
        if entropy:
            record["entropy"] = fock.entropy_from_density(rho)
        record["basis"] = {"gamma1": basis.gamma1, "gamma2": basis.gamma2,
                           "jmax": basis.jmax, "kmax": basis.kmax}
    else:  # oracle; argparse and --config check the method against its choices
        res = grid.schmidt_analyze(sys, state,
                                   grid.GridSpec(args.n_points, args.extent))
        res.check()
        record["purity"] = res.purity
        if entropy:
            record["entropy"] = res.entropy
        record["norm_defect"] = res.norm_defect
    return record


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _output(path):
    """The file ``path`` opened for writing, or stdout when no path is given.

    stdout is looked up per call, so ``contextlib.redirect_stdout`` applies.
    """
    if path:
        with open(path, "w", newline="\n") as fh:
            yield fh
    else:
        yield _sys.stdout


def _emit_json(record: dict, path):
    text = json.dumps(record, sort_keys=True, default=_json_default, allow_nan=False)
    with _output(path) as fh:
        fh.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path, params: dict, columns, rows):
    """Every table the CLI emits: a ``# params:`` JSON line, the column line,
    then one LF-terminated line per row, floats written by :func:`_fmt`.

    ``rows`` may be any iterable; lines are written as they are formatted.
    Other values are written by ``str``, so a column the caller formatted
    once with :func:`_fmt` passes through unchanged.
    """
    header = json.dumps(params, sort_keys=True, allow_nan=False)
    with _output(path) as fh:
        fh.write(f"# params: {header}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in rows)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_purity(args) -> int:
    sys_ = build_system(args)
    state = parse_state(args.state)
    record = compute_purity(sys_, state, args.method, args)
    _emit_json(record, args.output)
    return 0


def _cmd_covariance(args) -> int:
    sys_ = build_system(args)
    pack = gaussian.covariance_coherent(sys_)
    record = {
        "system": _system_params(sys_),
        "V": pack.V,
        "V_standard": pack.standard_form(),
        "r": pack.r,
        "logneg": pack.logneg,
        "scaler_s": pack.scaler_s,
    }
    _emit_json(record, args.output)
    return 0


# the largest sweep any figure or check runs has 99 points
_SWEEP_POINTS_CAP = 10 ** 6


def _sweep_values(args) -> np.ndarray:
    try:
        start, stop, count = args.range.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise _UsageError(f"bad --range {args.range!r}; expected START:STOP:COUNT") from exc
    if count < 2:
        raise _UsageError("sweep needs at least 2 points")
    if count > _SWEEP_POINTS_CAP:
        raise ResourceCapError(f"sweep of {count} points exceeds the cap of "
                               f"{_SWEEP_POINTS_CAP}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"sweep endpoints must be finite, got {args.range!r}")
    if args.scale == "log":
        if start <= 0 or stop <= 0:
            raise _UsageError("log scale needs positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _sweep_point(args, state, value: float) -> float:
    """The purity of one sweep point of the parsed --state ``state``, built as
    the purity command builds it with the swept flag set to ``value``, under
    the floating-point rule in whichever thread it runs."""
    point = argparse.Namespace(**vars(args))
    if args.param == "tau":
        state = UnboundGaussian(state.m, value)
    elif args.param == "theta":
        state = Superposition.two_mode_mix(value)
    else:
        setattr(point, args.param, value)
    with np.errstate(**_FP_RULE):  # a pool thread starts with numpy's default
        return compute_purity(build_system(point), state, args.method, args,
                              entropy=False)["purity"]


# the flags a sweep's header records when they are set, and those of each route
_SWEEP_FLAGS = ("g", "mu1", "c", "gamma", "Gamma", "hbar", "m1", "m2", "omega", "Omega")
_METHOD_FLAGS = {"fock": ("jmax", "kmax", "gamma1", "gamma2"), "oracle": ("n_points", "extent")}


# pool.map queues every point it is given before the first result is read, so
# it gets a block at a time, and a sweep whose points fail stops in its first
_SWEEP_BLOCK = 64


def _cmd_sweep(args) -> int:
    values = _sweep_values(args)
    # a theta sweep's points build their own state and ignore --state
    state = None if args.param == "theta" else parse_state(args.state)
    if args.param == "tau" and not isinstance(state, UnboundGaussian):
        raise _UsageError("sweeping tau needs --state unbound:M,TAU")
    # Only exact sweeps run on the pool.  It keeps them steady on a shared
    # two-core machine: in the calling thread their points, cone reads of
    # about 0.5 ms, ran 1.7 to 2.4 times as fast, but their times jumped by
    # up to 1.7x with the load on the one core they held, within a run and
    # between runs; on the pool they did not.  Fock points (measured up to
    # |8,8> at jmax 170), analytic points and oracle points, whose BLAS
    # already uses every core, run in the calling thread.
    pooled = args.method == "exact"
    purities = []
    with (ThreadPoolExecutor(max_workers=_threads()) if pooled
          else contextlib.nullcontext()) as pool:
        point_map = pool.map if pooled else map
        for start in range(0, len(values), _SWEEP_BLOCK):
            block = values[start:start + _SWEEP_BLOCK].tolist()
            purities += point_map(lambda v: _sweep_point(args, state, v), block)
    params = {"param": args.param, "range": args.range, "scale": args.scale,
              "method": args.method, "state": args.state}
    for name in _SWEEP_FLAGS + _METHOD_FLAGS.get(args.method, ()):
        val = getattr(args, name)
        if val is not None and name != args.param:
            params[name] = val
    rows = [(float(v), float(p)) for v, p in zip(values, purities)]
    _write_csv(args.output, params, [args.param, "purity"], rows)
    return 0


# fixed parameter sets of the emitted figure datasets
_FIG12_COMBOS = [(1.0, 0.5), (1.0, 0.25), (10.0, 0.5), (10.0, 0.25)]
_FIG3_G = [1.0, 10.0, 100.0, 1000.0]
_FIG4_C = [1.0, 3.0, 10.0, 30.0]
_FIG5_G = [1.0, 5.0]
_FIG6_G = [1.0, 5.0]
_FIG6_THETA = [("0", 0.0), ("pi_6", math.pi / 6), ("pi_3", math.pi / 3)]
_FIG7_PAIRS = [(1 / math.sqrt(2), 1 / math.sqrt(2)), (1.0, 1.0),
               (1 / math.sqrt(2), 1.0), (1.0, 1 / math.sqrt(2))]
_FIG7_CASES = [(1.0, 0.5), (5.0, 0.5), (1.0, 0.1), (5.0, 0.1)]


def _mu_table(path, params: dict, columns):
    """A table over the mu1 grid of ``sweep --param mu1 --range 0.01:0.99:99``;
    each column is ``(name, system of mu1, state)``, each cell the
    :func:`acceptance.method_purity` of its state on its system."""
    rows = ((mu,) + tuple(acceptance.method_purity(system(mu), state)
                          for (_, system, state) in columns)
            for mu in np.linspace(0.01, 0.99, 99).tolist())
    _write_csv(path, params, ["mu1"] + [name for (name, _, _) in columns], rows)


def _cmd_figure(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    emitted = []

    def outpath(name: str) -> str:
        path = os.path.join(args.outdir, name)
        emitted.append(path)
        return path

    which = args.which
    if which in ("fig1", "fig2"):
        m, n = (0, 0) if which == "fig1" else (1, 0)
        spec = grid.GridSpec(n_points=args.points)
        for (g, mu1) in _FIG12_COMBOS:
            sys_ = OscillatorSystem.from_dimensionless(g, mu1)
            dg = grid.density_grid(sys_, NumberState(m, n), spec)
            # each axis value formatted once, not on each of its n rows
            x2 = [_fmt(b) for b in dg.x2.tolist()]
            rows = ((a, b, d) for a, line in zip(map(_fmt, dg.x1.tolist()), dg.density.tolist())
                    for b, d in zip(x2, line))
            _write_csv(outpath(f"{which}_g{g:g}_mu{mu1:g}.csv"),
                       {"g": g, "mu1": mu1, "state": f"number:{m},{n}", "n": args.points},
                       ["x1", "x2", "density"], rows)
    elif which == "fig3":
        _mu_table(outpath("fig3.csv"), {"g": _FIG3_G},
                  [(f"P_g{g:g}", functools.partial(OscillatorSystem.from_dimensionless, g),
                    Coherent()) for g in _FIG3_G])
    elif which == "fig4":
        flip = args.c_convention == "gamma-over-Gamma"
        _mu_table(outpath("fig4.csv"),
                  {"c": _FIG4_C, "c_convention": args.c_convention, "tau": 0.0},
                  [(f"P_c{c:g}", functools.partial(OscillatorSystem.from_untrapped,
                                                   c=1.0 / c if flip else c),
                    UnboundGaussian(0, 0.0)) for c in _FIG4_C])
    elif which == "fig5":
        for g in _FIG5_G:
            _mu_table(outpath(f"fig5_g{g:g}.csv"), {"g": g},
                      [(f"P{m}{n}", functools.partial(OscillatorSystem.from_dimensionless, g),
                        NumberState(m, n)) for m in (0, 1, 2) for n in (0, 1, 2, 3)])
    elif which == "fig6":
        for g in _FIG6_G:
            _mu_table(outpath(f"fig6_g{g:g}.csv"),
                      {"g": g, "theta": [lbl for (lbl, _) in _FIG6_THETA]},
                      [(f"P_theta_{lbl}", functools.partial(OscillatorSystem.from_dimensionless, g),
                        Superposition.two_mode_mix(th)) for (lbl, th) in _FIG6_THETA])
    else:  # fig7
        runs = fock.convergence_run(
            [OscillatorSystem.from_dimensionless(g, mu1) for (g, mu1) in _FIG7_CASES],
            NumberState(0, 1), _FIG7_PAIRS, max_truncation=5)
        for (g, mu1), rows in zip(_FIG7_CASES, runs):
            _write_csv(outpath(f"fig7_g{g:g}_mu{mu1:g}.csv"),
                       {"g": g, "mu1": mu1, "state": "number:0,1"},
                       ["gamma1", "gamma2", "jmax", "kmax", "purity", "abs_error"], rows)
    for path in emitted:
        print(path)
    return 0


def _cmd_oracle_compare(args) -> int:
    rows, worst = acceptance.oracle_residuals(grid.GridSpec(n_points=args.n_points,
                                                            extent_sigmas=args.extent))
    _write_csv(args.output, {"n_points": args.n_points, "extent": args.extent},
               ["case", "method_purity", "oracle_purity", "abs_diff"], rows)
    if not worst <= acceptance.ORACLE_TOL:
        raise NumericalConsistencyError(f"worst method-vs-oracle residual {worst:.3e} "
                                        f"exceeds {acceptance.ORACLE_TOL:g}")
    return 0


def _print_criterion_json(num, title, ok, seconds, detail):
    print(json.dumps({"number": num, "title": title, "ok": ok, "seconds": seconds,
                      "detail": detail}, sort_keys=True))


def _cmd_selftest(args) -> int:
    selection = None
    if args.criteria is not None:
        try:
            selection = [int(tok) for tok in args.criteria.split(",")]
        except ValueError:
            raise _UsageError(f"--criteria takes comma-separated criterion numbers, "
                              f"got {args.criteria!r}") from None
        unknown = sorted(set(selection) - {num for (num, _, _) in acceptance.CRITERIA})
        if unknown:
            raise _UsageError(f"no criterion numbered {', '.join(map(str, unknown))}")
    report = _print_criterion_json if args.json else acceptance.print_line
    ok = acceptance.run_all(selection, report)
    if not ok:
        return 2
    return 0


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------


# the oracle's refusals name the GridSpec fields these flags set
_N_POINTS_HELP = "oracle grid points per axis, GridSpec.n_points (default: sized from the state)"
_EXTENT_HELP = "oracle half-width in sigmas, GridSpec.extent_sigmas"


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = _Parser(prog="oscillent",
                     description="Interparticle entanglement of two coupled oscillators.")
    sub = parser.add_subparsers(dest="command", required=True)
    # command name -> its parser, whose flags --config values are checked against
    parser.commands = sub.choices

    def common(p):
        _add_system_args(p)
        p.add_argument("--config", help="JSON file supplying defaults for any flag")
        p.add_argument("-o", "--output", help="output file (default: stdout)")

    def method_opts(p):
        p.add_argument("--method", choices=["analytic", "exact", "fock", "oracle"],
                       default="exact")
        p.add_argument("--jmax", type=int, default=12, help="fock truncation")
        p.add_argument("--kmax", type=int, default=None, help="fock truncation (default jmax)")
        p.add_argument("--gamma1", type=float, help="fock basis scale for particle 1")
        p.add_argument("--gamma2", type=float, help="fock basis scale for particle 2")
        p.add_argument("--n-points", type=int, default=None, help=_N_POINTS_HELP)
        p.add_argument("--extent", type=float, default=grid.GridSpec.extent_sigmas,
                       help=_EXTENT_HELP)

    p = sub.add_parser("purity", help="single purity evaluation")
    common(p)
    method_opts(p)
    p.add_argument("--state", help="state literal, e.g. number:0,1 (required)")

    p = sub.add_parser("covariance", help="coherent-state covariance pipeline")
    common(p)

    p = sub.add_parser("sweep", help="one-parameter sweep to CSV")
    common(p)
    method_opts(p)
    p.add_argument("--param", choices=["g", "mu1", "tau", "theta", "c"], help="(required)")
    p.add_argument("--range", help="START:STOP:COUNT (required)")
    p.add_argument("--scale", choices=["linear", "log"], default="linear")
    p.add_argument("--state", default="coherent:", help="state literal")

    p = sub.add_parser("figure", help="emit a reference figure dataset")
    p.add_argument("which", choices=[f"fig{i}" for i in range(1, 8)])
    p.add_argument("--outdir", default=".", help="output directory")
    p.add_argument("--points", type=int, default=201, help="grid points for density figures")
    p.add_argument("--c-convention", choices=["Gamma-over-gamma", "gamma-over-Gamma"],
                   default="Gamma-over-gamma",
                   help="meaning of the fig4 curve parameter c")
    p.add_argument("--config", help="JSON file supplying defaults for any flag")

    p = sub.add_parser("oracle-compare", help="method-vs-oracle residual table")
    p.add_argument("--config", help="JSON file supplying defaults for any flag")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--n-points", type=int, default=None, help=_N_POINTS_HELP)
    p.add_argument("--extent", type=float, default=grid.GridSpec.extent_sigmas,
                   help=_EXTENT_HELP)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per criterion: number, title, ok, seconds, detail")

    return parser


def _config_value(action: argparse.Action, key: str, val):
    """A --config value converted and checked as the flag's own argument would
    be; null stands for the flag's default."""
    if val is None:
        return action.default
    wants_text = action.type is None
    if isinstance(val, bool) or not isinstance(val, str if wants_text else (int, float)):
        kind = "a string" if wants_text else "a number"
        raise _UsageError(f"--config key {key!r} needs {kind}, got {val!r}")
    if not wants_text:
        try:
            val = action.type(str(val))
        except ValueError:
            raise _UsageError(f"--config key {key!r}: invalid {action.type.__name__} "
                              f"value {val!r}") from None
    if action.choices is not None and val not in action.choices:
        raise _UsageError(f"--config key {key!r}: {val!r} is not one of "
                          f"{', '.join(map(str, action.choices))}")
    return val


def _apply_config(args, argv, command_parser: argparse.ArgumentParser):
    """The command line parsed again over the --config values.

    Each value goes through the flag's own type and choices; a key that names
    no flag of the command is a usage error.  argparse fills only what the
    command line left out, so any spelling of a flag it accepts beats the file.
    """
    with open(args.config) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise _UsageError(f"--config {args.config!r} must hold a JSON object")
    flags = {a.dest: a for a in command_parser._actions
             if a.option_strings and a.nargs != 0 and a.dest != "config"}
    defaults = argparse.Namespace(command=args.command)
    for key, val in values.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise _UsageError(f"unknown --config key {key!r} for {args.command}")
        setattr(defaults, dest, _config_value(flags[dest], key, val))
    return command_parser.parse_args(argv[1:], defaults)


# flags a command cannot run without; checked after --config is applied, so a
# config value supplies them as well as the command line does
_REQUIRED = {"purity": ("state",), "sweep": ("param", "range")}


# numpy's error state for every command; underflow keeps its silent default
_FP_RULE = {"divide": "raise", "over": "raise", "invalid": "raise"}


def run(argv=None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        with np.errstate(**_FP_RULE):
            args = parser.parse_args(argv)
            # looked up per call, so a rebinding of a _cmd_* function (for
            # tracing, say) takes effect although the parser is built only once
            command = globals()["_cmd_" + args.command.replace("-", "_")]
            if getattr(args, "config", None) is not None:
                args = _apply_config(args, argv, parser.commands[args.command])
            missing = [f"--{dest}" for dest in _REQUIRED.get(args.command, ())
                       if getattr(args, dest) is None]
            if missing:
                raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
            if getattr(args, "kmax", None) is None and hasattr(args, "jmax"):
                args.kmax = args.jmax
            return command(args)
    except ResourceCapError as exc:
        code, message = 3, exc
    except NumericalConsistencyError as exc:
        code, message = 2, exc
    # ArithmeticError: numpy's FloatingPointError and Python's OverflowError
    # and ZeroDivisionError; LinAlgError is a ValueError, so it comes first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # Python's OverflowError carries (errno, text); the text is the message
        code, message = 2, f"floating-point failure: {(exc.args or [exc])[-1]}"
    except (OscillentError, OSError, TypeError, ValueError) as exc:
        code, message = 1, exc
    print(f"error: {message}", file=_sys.stderr)
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
