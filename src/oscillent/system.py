"""Physical and dimensionless parameterizations of the two-oscillator system.

A pair of distinguishable masses m1, m2 interacts through a quadratic potential
of angular frequency ``omega`` (the relative or "molecular" mode) while the
center of mass sits in a harmonic trap of frequency ``Omega``; ``Omega = 0``
encodes the untrapped pair whose center-of-mass wave packet spreads freely.
Everything downstream consumes the derived inverse-length scales

    Gamma = sqrt(M * Omega / hbar)   (center-of-mass mode)
    gamma = sqrt(mu * omega / hbar)  (relative mode)

and the mass fractions ``mu1``, ``mu2``.  For the untrapped system ``Gamma``
is a free initial-condition parameter (the momentum spread of the packet at
the instant of minimum uncertainty) rather than a derived quantity.

The equilibrium separation of the pair is fixed to zero: shifting it is a
local unitary in either coordinate system and cannot change any entanglement
quantity, so no API accepts it.

Every state kind has ``orders``, its highest relative and center-of-mass
oscillator orders, ``is_real``, whether its wavefunction is real, and
``parity``, the sign s with psi(-x1, -x2) = s psi(x1, x2) when the kind
guarantees one and None otherwise.  The relative and center-of-mass
coordinates both change sign under (x1, x2) -> (-x1, -x2), and the mode
function of order k has parity (-1)^k, so |m, n> has parity (-1)^(m+n).

All objects here are frozen dataclasses; they are safe to share across
threads without coordination.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "OscillatorSystem",
    "Coherent",
    "NumberState",
    "Superposition",
    "UnboundGaussian",
    "StateSpec",
]

_NORMALIZATION_TOL = 1e-12
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float
# the oracle grid's default half-width in position spreads,
# GridSpec.extent_sigmas; kept here, where the command line's --extent
# default reads it without importing the grid module
_EXTENT_SIGMAS = 8.0


def _check_scale_ratio(Gamma: float, gamma: float) -> None:
    """Refuse an untrapped pair whose c = Gamma / gamma is not a finite
    float (gamma = 0 included), naming both."""
    if not (gamma > 0 and Gamma / gamma < math.inf):
        raise DomainError(f"c = Gamma / gamma leaves the float range at Gamma = {Gamma!r}, "
                          f"gamma = {gamma!r}")


@dataclass(frozen=True)
class OscillatorSystem:
    """Two coupled oscillators and every derived constant used elsewhere.

    Construct through :meth:`from_physical`, :meth:`from_dimensionless` or
    :meth:`from_untrapped` rather than directly; the constructors validate
    their domains and pick the appropriate gauge.

    Attributes
    ----------
    m1, m2 : float
        Masses, strictly positive.
    omega : float
        Relative-mode angular frequency, strictly positive.
    Omega : float
        Trap (center-of-mass) angular frequency; 0 means untrapped.
    hbar : float
        Action scale, strictly positive.
    Gamma : float
        Center-of-mass inverse length sqrt(M*Omega/hbar) when trapped,
        otherwise the free initial-condition parameter of the wave packet.
    """

    m1: float
    m2: float
    omega: float
    Omega: float
    hbar: float = 1.0
    Gamma: float = field(default=0.0)

    def __post_init__(self):
        for name in ("m1", "m2", "omega", "Omega", "hbar", "Gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("m1", "m2", "omega", "hbar"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if self.Omega < 0:
            raise DomainError(f"Omega must be nonnegative, got {self.Omega}")
        if not self.Gamma > 0:
            raise DomainError(f"Gamma must be positive, got {self.Gamma}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_physical(cls, m1, m2, omega, OmegaTrap, hbar=1.0, Gamma=None):
        """Build from laboratory parameters.

        ``Gamma`` must be supplied when ``OmegaTrap == 0`` (it is then an
        initial condition of the center-of-mass packet) and must be omitted
        when ``OmegaTrap > 0`` (it is then derived).  A trap whose
        g = omega / OmegaTrap overflows is refused, naming both, and so is
        an untrapped pair whose c = Gamma / gamma overflows.
        """
        if m1 <= 0 or m2 <= 0:
            raise DomainError("masses must be positive")
        if omega <= 0:
            raise DomainError("omega must be positive")
        if hbar <= 0:
            raise DomainError("hbar must be positive")
        if OmegaTrap < 0:
            raise DomainError("OmegaTrap must be nonnegative")
        if OmegaTrap > 0:
            if Gamma is not None:
                raise DomainError("Gamma is derived from the trap; do not pass it when OmegaTrap > 0")
            if math.isfinite(omega) and omega / OmegaTrap == math.inf:
                raise DomainError(f"g = omega / OmegaTrap leaves the float range at "
                                  f"omega = {omega!r}, OmegaTrap = {OmegaTrap!r}")
            Gamma = math.sqrt((m1 + m2) * OmegaTrap / hbar)
        else:
            if Gamma is None:
                raise DomainError("untrapped system needs an explicit Gamma initial condition")
        system = cls(m1=float(m1), m2=float(m2), omega=float(omega),
                     Omega=float(OmegaTrap), hbar=float(hbar), Gamma=float(Gamma))
        if not system.is_trapped:
            _check_scale_ratio(system.Gamma, system.gamma)
        return system

    @classmethod
    def from_dimensionless(cls, g, mu1):
        """Canonical-gauge trapped system: Gamma = 1, hbar = 1, total mass 1.

        Every purity of a trapped state depends only on (g, mu1), so this
        gauge loses nothing.
        """
        if not (g > 0 and math.isfinite(g)):
            raise DomainError(f"g must be positive and finite, got {g}")
        if not 0 < mu1 < 1:
            raise DomainError(f"mu1 must lie strictly in (0, 1), got {mu1}")
        # M = 1 and Gamma = 1 force Omega = 1, hence omega = g.
        return cls(m1=float(mu1), m2=float(1.0 - mu1), omega=float(g),
                   Omega=1.0, hbar=1.0, Gamma=1.0)

    @classmethod
    def from_untrapped(cls, mu1, Gamma=1.0, c=None, gamma=None):
        """Untrapped system in the canonical gauge (hbar = 1, total mass 1).

        Exactly one of ``c`` (= Gamma/gamma) or ``gamma`` selects the
        relative-mode scale; one whose omega = gamma^2 / mu leaves the
        normal float range is refused, naming it, and so is a gamma whose
        c = Gamma / gamma overflows.
        """
        if not 0 < mu1 < 1:
            raise DomainError(f"mu1 must lie strictly in (0, 1), got {mu1}")
        if not Gamma > 0:
            raise DomainError(f"Gamma must be positive, got {Gamma}")
        if not math.isfinite(Gamma):
            raise DomainError(f"Gamma must be finite, got {Gamma}")
        if (c is None) == (gamma is None):
            raise DomainError("pass exactly one of c or gamma")
        if c is not None:
            if not c > 0:
                raise DomainError(f"c must be positive, got {c}")
            gamma = Gamma / c
        elif not gamma > 0:
            raise DomainError(f"gamma must be positive, got {gamma}")
        mu_red = mu1 * (1.0 - mu1)
        omega = gamma * gamma / mu_red  # hbar = 1, M = 1
        if not _NORMAL_MIN <= omega < math.inf:
            given = f"c = {c!r}" if c is not None else f"gamma = {gamma!r}"
            raise DomainError(f"{given} puts the relative-mode frequency omega = gamma^2 / mu "
                              f"outside the normal float range")
        _check_scale_ratio(Gamma, gamma)
        return cls(m1=float(mu1), m2=float(1.0 - mu1), omega=float(omega),
                   Omega=0.0, hbar=1.0, Gamma=float(Gamma))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def M_total(self) -> float:
        return self.m1 + self.m2

    @property
    def mu_reduced(self) -> float:
        return self.m1 * self.m2 / self.M_total

    @property
    def mu1(self) -> float:
        return self.m1 / self.M_total

    @property
    def mu2(self) -> float:
        # 1 - mu1 exactly, so the mu1 <-> mu2 symmetry is testable to the bit
        return 1.0 - self.mu1

    @property
    def is_trapped(self) -> bool:
        return self.Omega > 0

    def check_untrapped(self) -> None:
        """Raise DomainError for a trapped system: the one refusal of the
        spreading center-of-mass packet, which only a free pair has."""
        if self.is_trapped:
            raise DomainError("the spreading packet needs an untrapped system (Omega = 0)")

    @property
    def g(self) -> float:
        """Frequency ratio omega/Omega; defined only for trapped systems."""
        if not self.is_trapped:
            raise DomainError("g = omega/Omega is undefined for an untrapped system")
        return self.omega / self.Omega

    @property
    def gamma(self) -> float:
        """Relative-mode inverse length sqrt(mu * omega / hbar)."""
        return math.sqrt(self.mu_reduced * self.omega / self.hbar)

    @property
    def c(self) -> float:
        """Scale ratio Gamma/gamma."""
        return self.Gamma / self.gamma


# ----------------------------------------------------------------------
# state descriptions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Coherent:
    """Two-mode coherent state: ``alpha`` displaces the relative mode,
    ``beta`` the center-of-mass mode."""

    alpha: complex = 0j
    beta: complex = 0j

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    orders = (0, 0)
    is_real = False
    # None for every displacement, zero included, though the undisplaced state is even
    parity = None


def _quantum_number(value, name: str) -> int:
    """A nonnegative integral value (int, numpy integer, ...) as a Python int;
    the one check of every count the package takes, ``name`` naming it."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return count


@dataclass(frozen=True)
class NumberState:
    """Joint eigenstate |m, n> of the relative (m) and center-of-mass (n)
    mode number operators."""

    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "m", _quantum_number(self.m, "m"))
        object.__setattr__(self, "n", _quantum_number(self.n, "n"))

    is_real = True

    @property
    def orders(self) -> tuple[int, int]:
        return self.m, self.n

    @property
    def parity(self) -> int:
        return -1 if (self.m + self.n) % 2 else 1


@dataclass(frozen=True)
class Superposition:
    """Finite superposition sum_k c_k |m_k, n_k> with sum |c_k|^2 = 1.

    ``terms`` is a tuple of (m, n, coefficient) triples.  A term with c = 0
    is not part of the state: it is dropped once the labels and the norm are
    checked, so every route sizes and sums the weighted terms only.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((_quantum_number(m, "m"), _quantum_number(n, "n"), complex(cf))
                      for (m, n, cf) in self.terms)
        if not terms:
            raise DomainError("superposition needs at least one term")
        if len({(m, n) for (m, n, _) in terms}) != len(terms):
            raise DomainError("duplicate (m, n) labels in superposition")
        # a product overflows to inf where ** would raise OverflowError
        norm = sum(abs(cf) * abs(cf) for (_, _, cf) in terms)
        if not abs(norm - 1.0) <= _NORMALIZATION_TOL:
            raise DomainError(f"superposition is not normalized: sum |c|^2 = {norm!r}")
        object.__setattr__(self, "terms", tuple((m, n, cf) for (m, n, cf) in terms if cf != 0))

    @property
    def orders(self) -> tuple[int, int]:
        return (max(m for (m, _, _) in self.terms), max(n for (_, n, _) in self.terms))

    @property
    def is_real(self) -> bool:
        return all(cf.imag == 0 for (_, _, cf) in self.terms)

    @property
    def parity(self) -> int | None:
        """The terms' common parity, or None when they mix parities."""
        signs = {-1 if (m + n) % 2 else 1 for (m, n, _) in self.terms}
        return signs.pop() if len(signs) == 1 else None

    @classmethod
    def two_mode_mix(cls, theta: float) -> "Superposition":
        """The one-excitation family cos(theta)|0,1> + sin(theta)|1,0>."""
        if not math.isfinite(theta):
            raise DomainError(f"theta must be finite, got {theta!r}")
        return cls(((0, 1, math.cos(theta)), (1, 0, math.sin(theta))))


@dataclass(frozen=True)
class UnboundGaussian:
    """Relative vibrational state m combined with a spreading center-of-mass
    Gaussian packet at dimensionless time tau = Gamma^2 * hbar * t / M.

    Only meaningful for untrapped systems (Omega = 0); the consuming
    operations enforce that through :meth:`OscillatorSystem.check_untrapped`.
    """

    m: int
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "m", _quantum_number(self.m, "m"))
        if not math.isfinite(self.tau):
            raise DomainError("tau must be finite")
        object.__setattr__(self, "tau", float(self.tau))

    is_real = False

    @property
    def orders(self) -> tuple[int, int]:
        return self.m, 0

    @property
    def parity(self) -> int:
        # the spreading packet is even in the center-of-mass coordinate
        return -1 if self.m % 2 else 1


StateSpec = Coherent | NumberState | Superposition | UnboundGaussian
