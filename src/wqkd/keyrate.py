"""Analytic gain, QBER and key-rate model for the four-party protocol.

The five-case decomposition (all counts dark, one photon + three darks, ...,
four photons) carries the case-4 error coefficient pair (17, 7), whose second
entry genuinely breaks the error = gain/2 pattern of the other cases.  The
independent protocol enumerator re-derives every coefficient from scratch and
confirms each one exactly; see wqkd.protocol.

All case polynomials are plain ring arithmetic, so they evaluate exactly when
fed Fractions and in floating point otherwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable

from .errors import NoPositiveRate, ZeroGain

Number = float | Fraction
_MAX_SEARCH_KM = 1e6  # secure_distance scans 10 km steps: at most 10**5 rate evaluations


def left_sum(values: Iterable[Number]) -> Number:
    """0 + v0 + v1 + ..., rounded term by term on every interpreter.

    From Python 3.12 on, builtin ``sum`` compensates float round-off, which can
    move the last bit of a float total.
    """
    return reduce(operator.add, values, 0)


@dataclass(frozen=True)
class ChannelParams:
    """One arm: fiber attenuation (dB/km), arm length (km), detector efficiency."""

    alpha: float = 0.2
    arm_length_km: float = 0.0
    eta_d: float = 0.145

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.arm_length_km)):  # nan would pass the sign checks
            raise ValueError(f"alpha and arm length must be finite, got {self.alpha} and {self.arm_length_km}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.arm_length_km < 0:
            raise ValueError("arm length must be non-negative")
        if not 0 < self.eta_d <= 1:
            raise ValueError("detector efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class NoiseParams:
    """Background (dark) count probability per detection slot per trial."""

    y0: Number = 6.02e-6

    def __post_init__(self):
        if not 0 <= self.y0 < 1:
            raise ValueError("y0 must lie in [0, 1)")


@dataclass(frozen=True)
class Transmittances:
    """Per-party overall transmittance (channel times detector)."""

    eta_a: Number
    eta_b: Number
    eta_c: Number
    eta_d_party: Number

    def __post_init__(self):
        for eta in self:
            if not 0 <= eta <= 1:
                raise ValueError("transmittances must lie in [0, 1]")

    def __iter__(self):
        return iter((self.eta_a, self.eta_b, self.eta_c, self.eta_d_party))

    @classmethod
    def equal(cls, eta: Number) -> Transmittances:
        return cls(eta, eta, eta, eta)


@dataclass(frozen=True)
class AnalyzerConstants:
    """Identification probabilities of W4,0/W4,c and W4,1/W4,d."""

    dp0: Number
    dp1: Number

    @classmethod
    def from_table(cls, table) -> AnalyzerConstants:
        return cls(table.success_probability[0], table.success_probability[1])


@dataclass(frozen=True)
class RateParams:
    """Basis reconciliation factor."""

    q: float = 1.0

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise ValueError("q must lie in (0, 1]")


@dataclass(frozen=True)
class CaseBreakdown:
    """Per-case accepted-gain and error-gain contributions, cases 1..5."""

    gain: tuple[Number, Number, Number, Number, Number]
    error: tuple[Number, Number, Number, Number, Number]

    @property
    def total_gain(self) -> Number:
        return left_sum(self.gain)

    @property
    def total_error(self) -> Number:
        return left_sum(self.error)


def transmittance(c: ChannelParams) -> float:
    """eta = 10**(-alpha*l/10) * eta_d."""
    return 10.0 ** (-c.alpha * c.arm_length_km / 10.0) * c.eta_d


def h2(x: float) -> float:
    """Binary entropy; h2(0) = h2(1) = 0 by continuity."""
    if not 0 <= x <= 1:
        raise ValueError(f"h2 argument {x} outside [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def case_breakdown(t: Transmittances, n: NoiseParams, k: AnalyzerConstants) -> CaseBreakdown:
    """The five-case gain terms and the four error terms of the model.

    Announcer roles are parties a and b throughout.
    """
    ea, eb, ec, ed = t
    ca, cb, cc, cd = 1 - ea, 1 - eb, 1 - ec, 1 - ed
    y0 = n.y0
    f12 = (1 - y0) ** 12

    g1 = 8 * ca * cb * cc * cd * y0**4 * f12
    r1 = 4 * ca * cb * cc * cd * y0**4 * f12

    ab = ea * cb * cc * cd + eb * ca * cc * cd
    cdp = ec * ca * cb * cd + ed * ca * cb * cc
    g2 = (52 * ab + 38 * cdp) * y0**3 * f12 / 16
    r2 = (26 * ab + 19 * cdp) * y0**3 * f12 / 16

    pair = (
        16 * ea * eb * cc * cd
        + 10 * (ea * ec * cb * cd + eb * ed * ca * cc)
        + 9 * (ea * ed * cb * cc + eb * ec * ca * cd)
        + 8 * ec * ed * ca * cb
    )
    g3 = pair * y0**2 * f12 / 16
    r3 = pair * y0**2 * f12 / 32

    abx = ea * eb * ec * cd + ea * eb * ed * cc
    cdx = ea * ec * ed * cb + eb * ec * ed * ca
    g4 = (34 * abx + 15 * cdx) * y0 * f12 / 256
    r4 = (17 * abx + 7 * cdx) * y0 * f12 / 256

    g5 = ea * eb * ec * ed * (k.dp0 + k.dp1) * f12 / 16
    r5 = 0 * g5  # no error when all four counts are photons

    return CaseBreakdown((g1, g2, g3, g4, g5), (r1, r2, r3, r4, r5))


def q1_identical(eta: Number, n: NoiseParams, k: AnalyzerConstants) -> Number:
    """Equal-channel gain closed form."""
    y0 = n.y0
    c = 1 - eta
    return (
        (1 - y0) ** 12
        * (
            1024 * c**4 * y0**4
            + 1440 * eta * c**3 * y0**3
            + 496 * eta**2 * c**2 * y0**2
            + 49 * eta**3 * c * y0
            + 8 * (k.dp0 + k.dp1) * eta**4
        )
        / 128
    )


def e1_identical(eta: Number, n: NoiseParams, k: AnalyzerConstants) -> Number:
    """Equal-channel QBER closed form; raises ZeroGain when the gain vanishes."""
    q1 = q1_identical(eta, n, k)
    if q1 == 0:
        raise ZeroGain("QBER undefined: gain is zero")
    y0 = n.y0
    c = 1 - eta
    num = (1 - y0) ** 12 * (
        64 * c**4 * y0**4
        + 90 * eta * c**3 * y0**3
        + 31 * eta**2 * c**2 * y0**2
        + 3 * eta**3 * c * y0
    )
    return num / (16 * q1)


def key_rate(q1: float, e1: float, p: RateParams = RateParams()) -> float:
    """R0 = q * Q1 * (1 - 2*H2(e1)); may be negative."""
    return p.q * q1 * (1 - 2 * h2(e1))


@dataclass(frozen=True)
class SweepRow:
    distance_km: float  # end-to-end distance between two participants
    eta: float
    q1: float
    e1: float
    r0: float


def _point(c: ChannelParams, n: NoiseParams, k: AnalyzerConstants, p: RateParams, d_km: float) -> SweepRow:
    # The distance axis is end-to-end: each arm is half of it.
    eta = transmittance(ChannelParams(c.alpha, d_km / 2, c.eta_d))
    q1 = q1_identical(eta, n, k)
    e1 = e1_identical(eta, n, k) if q1 > 0 else 0.0
    return SweepRow(d_km, eta, float(q1), float(e1), key_rate(float(q1), float(e1), p))


def sweep(
    c: ChannelParams,
    n: NoiseParams,
    k: AnalyzerConstants,
    p: RateParams,
    distances: Iterable[float],
) -> list[SweepRow]:
    return [_point(c, n, k, p, d) for d in distances]


def check_search_limit(d_max: float) -> None:
    if d_max > _MAX_SEARCH_KM:  # a rate that never falls, at alpha = 0, would scan all the way
        raise ValueError(f"secure-distance search limit {d_max:g} km is beyond {_MAX_SEARCH_KM:g} km")


def secure_distance(
    c: ChannelParams,
    n: NoiseParams,
    k: AnalyzerConstants,
    p: RateParams = RateParams(),
    d_max: float = 2000.0,
) -> float | None:
    """Largest end-to-end distance with R0 > 0, to within 0.1 km.

    Returns None when the rate never crosses zero inside [0, d_max] (the
    sweep-limit sentinel; this is the y0 = 0 situation).
    """
    check_search_limit(d_max)
    if _point(c, n, k, p, 0.0).r0 <= 0:
        raise NoPositiveRate("key rate non-positive at zero distance")
    lo, hi = 0.0, None
    step = 10.0
    d = step
    while d <= d_max:
        if _point(c, n, k, p, d).r0 <= 0:
            hi = d
            break
        lo = d
        d += step
    if hi is None:
        return None
    while hi - lo > 0.1:
        mid = (lo + hi) / 2
        if _point(c, n, k, p, mid).r0 > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
