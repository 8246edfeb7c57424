"""Exact coefficient arithmetic for linear-optics amplitudes.

An :class:`Amplitude` is a finite sum  sum_k c_k * phi**k  where phi stands for
the unit phase e^{i*delta} picked up per delay-line traversal and each c_k lies
in the ring Z[i, 1/sqrt(2)].  Coefficients are stored as

    c = (p + q*i + (r + s*i) * sqrt(2)) * 2**(-h/2)

with integers p, q, r, s and h >= 0.  The sqrt(2) numerator part is only ever
populated by additions that mix even and odd half-powers; every coefficient
that shows up in beam-splitter and interferometer expansions keeps r = s = 0.

All values are immutable; arithmetic returns new objects.  Magnitudes are
exact rationals whenever they do not depend on delta.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .errors import MixedPhaseWithoutDelta

_SQRT2 = 2.0 ** 0.5

# A coefficient is the 5-tuple (p, q, r, s, h).
_Coef = tuple[int, int, int, int, int]

_ZERO_COEF: _Coef = (0, 0, 0, 0, 0)


def _reduce(p: int, q: int, r: int, s: int, h: int) -> _Coef:
    """Unique canonical form: divide out sqrt(2) while the plain part is even."""
    if p == q == r == s == 0:
        return _ZERO_COEF
    # (2a + g1*sqrt2) * 2**(-h/2) == (g1 + a*sqrt2) * 2**(-(h-1)/2)
    while h >= 1 and p % 2 == 0 and q % 2 == 0:
        p, q, r, s, h = r, s, p // 2, q // 2, h - 1
    return (p, q, r, s, h)


def _reduce_rows(nums, h: int):
    """:func:`_reduce` of every numerator row (p, q, r, s) at half-power h.

    Returns the columns p, q, r, s and h of the canonical forms.  Works on
    int64 and on Python-int (object) rows alike.
    """
    p, q, r, s = nums.T
    h = np.full(len(p), h, np.int64)
    while True:
        go = (h >= 1) & (p % 2 == 0) & (q % 2 == 0)
        if not go.any():
            return p, q, r, s, h
        p, q, r, s = np.where(go, r, p), np.where(go, s, q), np.where(go, p // 2, r), np.where(go, q // 2, s)
        h = h - go


def _lift(p: int, q: int, r: int, s: int, gap: int) -> tuple[int, int, int, int]:
    """The same value's numerator at half-power h + gap, for a numerator at h."""
    if gap % 2:  # lift by one sqrt(2): (g0 + g1*sqrt2)*sqrt2 = 2*g1 + g0*sqrt2
        p, q, r, s = 2 * r, 2 * s, p, q
    m = 1 << (gap // 2)
    return p * m, q * m, r * m, s * m


def _ring_mul(p1, q1, r1, s1, p2, q2, r2, s2):
    """Numerator of the product of two numerators p + q*i + (r + s*i)*sqrt2.

    Plain arithmetic only, so the operands may be ints or numpy arrays alike.
    """
    # (g0 + g1*sqrt2)(f0 + f1*sqrt2) = (g0*f0 + 2*g1*f1) + (g0*f1 + g1*f0)*sqrt2
    p = (p1 * p2 - q1 * q2) + 2 * (r1 * r2 - s1 * s2)
    q = (p1 * q2 + q1 * p2) + 2 * (r1 * s2 + s1 * r2)
    r = (p1 * r2 - q1 * s2) + (r1 * p2 - s1 * q2)
    s = (p1 * s2 + q1 * r2) + (r1 * q2 + s1 * p2)
    return p, q, r, s


def _cadd(a: _Coef, b: _Coef) -> _Coef:
    if a[4] > b[4]:
        a, b = b, a
    p1, q1, r1, s1 = _lift(a[0], a[1], a[2], a[3], b[4] - a[4])
    p2, q2, r2, s2, h2 = b
    return _reduce(p1 + p2, q1 + q2, r1 + r2, s1 + s2, h2)


def _cmul(a: _Coef, b: _Coef) -> _Coef:
    return _reduce(*_ring_mul(*a[:4], *b[:4]), a[4] + b[4])


def _cneg(a: _Coef) -> _Coef:
    p, q, r, s, h = a
    return (-p, -q, -r, -s, h)


def _cconj(a: _Coef) -> _Coef:
    p, q, r, s, h = a
    return (p, -q, r, -s, h)


def _ccomplex(a: _Coef) -> complex:
    p, q, r, s, h = a
    scale = 2.0 ** (-h / 2)
    return complex((p + r * _SQRT2) * scale, (q + s * _SQRT2) * scale)


def _cabs2(a: _Coef) -> Fraction | float:
    """|c|^2, exact when it is rational (always the case when r = s = 0)."""
    p, q, r, s, h = a
    plain = p * p + q * q + 2 * (r * r + s * s)
    root = 2 * (p * r + q * s)
    if root == 0:
        return Fraction(plain, 1 << h)
    return (plain + root * _SQRT2) / (1 << h)


def _cstr(a: _Coef) -> str:
    p, q, r, s, h = a
    if r == 0 and s == 0:
        return f"({p}{q:+}i)/2^({h}/2)"
    return f"({p}{q:+}i{r:+}sqrt2{s:+}i*sqrt2)/2^({h}/2)"


class Amplitude:
    """An exact element of Z[i, 1/sqrt(2)][phi, phi^-1]."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, _Coef] | None = None, _canonical: bool = False):
        if terms is None:
            terms = {}
        if not _canonical:
            terms = {k: _reduce(*c) for k, c in terms.items()}
            terms = {k: c for k, c in terms.items() if c != _ZERO_COEF}
        self._terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> Amplitude:
        return cls({}, _canonical=True)

    @classmethod
    def one(cls) -> Amplitude:
        return cls.gauss(1)

    @classmethod
    def gauss(cls, p: int, q: int = 0, half_power: int = 0, phase: int = 0) -> Amplitude:
        """(p + q*i) * 2**(-half_power/2) * phi**phase."""
        if half_power < 0:
            raise ValueError("half_power must be non-negative")
        return cls({phase: (p, q, 0, 0, half_power)})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def phase_powers(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, k: int) -> _Coef:
        return self._terms.get(k, _ZERO_COEF)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == Amplitude.gauss(other)
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Amplitude | int) -> Amplitude:
        if isinstance(other, int):
            other = Amplitude.gauss(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            cur = out.get(k)
            nc = c if cur is None else _cadd(cur, c)
            if nc == _ZERO_COEF:
                out.pop(k, None)
            else:
                out[k] = nc
        return Amplitude(out, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> Amplitude:
        return Amplitude({k: _cneg(c) for k, c in self._terms.items()}, _canonical=True)

    def __sub__(self, other: Amplitude | int) -> Amplitude:
        if isinstance(other, int):
            other = Amplitude.gauss(other)
        return self + (-other)

    def __mul__(self, other: Amplitude | int) -> Amplitude:
        if isinstance(other, int):
            other = Amplitude.gauss(other)
        if not isinstance(other, Amplitude):
            return NotImplemented
        out: dict[int, _Coef] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                c = _cmul(c1, c2)
                cur = out.get(k)
                nc = c if cur is None else _cadd(cur, c)
                if nc == _ZERO_COEF:
                    out.pop(k, None)
                else:
                    out[k] = nc
        return Amplitude(out, _canonical=True)

    __rmul__ = __mul__

    def conjugate(self) -> Amplitude:
        return Amplitude({-k: _cconj(c) for k, c in self._terms.items()}, _canonical=True)

    def times_phase(self, k: int) -> Amplitude:
        if k == 0:
            return self
        return Amplitude({kk + k: c for kk, c in self._terms.items()}, _canonical=True)

    def at_phase_one(self) -> Amplitude:
        """Collapse phi -> 1 exactly (the delta = 0 operating point)."""
        acc = _ZERO_COEF
        for c in self._terms.values():
            acc = _cadd(acc, c)
        if acc == _ZERO_COEF:
            return Amplitude.zero()
        return Amplitude({0: acc}, _canonical=True)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, delta: float = 0.0) -> complex:
        # summed in phase-power order, so equal amplitudes evaluate to equal
        # floats however their terms were accumulated
        return sum(
            (_ccomplex(c) * cmath.exp(1j * k * delta) for k, c in sorted(self._terms.items())),
            0j,
        )

    def as_real_fraction(self) -> Fraction | None:
        """The value as an exact rational, or None when it is not one."""
        if not self._terms:
            return Fraction(0)
        if self.phase_powers() != (0,):
            return None
        p, q, r, s, h = self._terms[0]
        if q or r or s or h % 2:
            return None
        return Fraction(p, 1 << (h // 2))

    def abs2(self, delta: float | None = None) -> Fraction | float:
        """|amplitude|^2; exact rational when at most one phase power is present."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            (c,) = self._terms.values()
            return _cabs2(c)
        if delta is None:
            raise MixedPhaseWithoutDelta(
                f"amplitude mixes phase powers {self.phase_powers()}; a delta is required"
            )
        return abs(self.evaluate(delta)) ** 2

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{_cstr(c)} * phi^{k}" for k, c in sorted(self._terms.items()))

    def __repr__(self) -> str:
        return f"Amplitude<{self}>"


def accumulate(terms: dict, key, amp: Amplitude) -> None:
    """Add ``amp`` to ``terms[key]``; a key whose sum is zero is dropped."""
    cur = terms.get(key)
    total = amp if cur is None else cur + amp
    if total.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = total
