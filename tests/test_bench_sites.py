"""The benchmark's tracer rebinds package functions by name
(``bench/tracing.instrument``).  Deleting or renaming one of them breaks
traced benchmark runs, so this checks that every name it binds exists and
that restoring puts every original back."""

import pathlib

from oscillent import acceptance, cli, exact, fock, gaussian, grid, taylor
from oscillent.system import OscillatorSystem, Superposition

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
OWNERS = (acceptance, cli, exact, fock, gaussian, grid, taylor,
          OscillatorSystem, Superposition)


def _changed(before):
    return {(owner.__name__.rpartition(".")[2], name) for owner, names in before.items()
            for name, value in names.items() if vars(owner).get(name) is not value}


def test_instrument_binds_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = {owner: dict(vars(owner)) for owner in OWNERS}
    try:
        restore = tracing.instrument(tracing.Tracer())
        rebound = _changed(before)
        restore()
        left = _changed(before)
    finally:
        # a failed instrument() leaves the sites it reached rebound
        for owner, names in before.items():
            for name, value in names.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    assert ("fock", "purity_truncated") in rebound
    assert ("OscillatorSystem", "from_dimensionless") in rebound
    assert not left
