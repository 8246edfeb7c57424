"""Multi-mode bosonic states as exact sums of creation-operator monomials.

A monomial is a sorted tuple of (spatial mode, time bin) slots, one entry per
creation operator acting on the vacuum.  States map monomials to exact
:class:`~wqkd.amplitude.Amplitude` coefficients; zero coefficients are never
stored.  Mode maps substitute each creation operator by a finite linear
combination of output operators, with one phi phase power per delay traversed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .amplitude import Amplitude, accumulate
from .errors import UnmappedMode

SPATIAL_ORDER = "abcdefghjklmsuvw"
_SPATIAL_INDEX = {c: i for i, c in enumerate(SPATIAL_ORDER)}


class Mode(NamedTuple):
    spatial: str
    bin: int

    def sort_key(self) -> tuple[int, int]:
        return (_SPATIAL_INDEX[self.spatial], self.bin)

    def __str__(self) -> str:
        return f"{self.spatial}{self.bin}"


def mode(spatial: str, t: int) -> Mode:
    if spatial not in _SPATIAL_INDEX:
        raise ValueError(f"unknown spatial mode {spatial!r}")
    if t < 0:
        raise ValueError("time bin must be non-negative")
    return Mode(spatial, t)


Monomial = tuple[Mode, ...]


def monomial(*modes: Mode) -> Monomial:
    return tuple(sorted(modes, key=Mode.sort_key))


def multiplicity_factor(mon: Monomial) -> int:
    """Product of n! over slot occupations n (norm of the bare monomial)."""
    out = 1
    run = 1
    for i in range(1, len(mon)):
        run = run + 1 if mon[i] == mon[i - 1] else 1
        out *= run
    return out


class FockState:
    """Finite linear combination of creation-operator monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Amplitude] | None = None):
        self._terms = {m: a for m, a in (terms or {}).items() if not a.is_zero}

    # -- constructors -------------------------------------------------------

    @classmethod
    def vacuum(cls) -> FockState:
        return cls({(): Amplitude.one()})

    @classmethod
    def zero(cls) -> FockState:
        return cls({})

    @classmethod
    def single(cls, m: Mode, amp: Amplitude | None = None) -> FockState:
        return cls({(m,): amp if amp is not None else Amplitude.one()})

    @classmethod
    def from_monomial(cls, mon: Iterable[Mode], amp: Amplitude | None = None) -> FockState:
        return cls({monomial(*mon): amp if amp is not None else Amplitude.one()})

    # -- structure ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Amplitude]]:
        return iter(sorted(self._terms.items()))

    def amplitude(self, mon: Iterable[Mode]) -> Amplitude:
        return self._terms.get(monomial(*mon), Amplitude.zero())

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self._terms == other._terms

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: FockState) -> FockState:
        out = dict(self._terms)
        for m, a in other._terms.items():
            accumulate(out, m, a)
        return FockState.__new_canonical(out)

    def __sub__(self, other: FockState) -> FockState:
        return self + other.scaled(Amplitude.gauss(-1))

    def scaled(self, amp: Amplitude | int) -> FockState:
        if isinstance(amp, int):
            amp = Amplitude.gauss(amp)
        return FockState({m: a * amp for m, a in self._terms.items()})

    def __mul__(self, amp: Amplitude | int) -> FockState:
        return self.scaled(amp)

    __rmul__ = __mul__

    def tensor(self, other: FockState) -> FockState:
        out: dict[Monomial, Amplitude] = {}
        for m1, a1 in self._terms.items():
            for m2, a2 in other._terms.items():
                accumulate(out, monomial(*m1, *m2), a1 * a2)
        return FockState.__new_canonical(out)

    @staticmethod
    def __new_canonical(terms: dict[Monomial, Amplitude]) -> FockState:
        st = FockState.__new__(FockState)
        st._terms = terms
        return st

    def collapse_phase(self) -> FockState:
        """Evaluate phi -> 1 exactly in every coefficient."""
        return FockState({m: a.at_phase_one() for m, a in self._terms.items()})

    # -- propagation ---------------------------------------------------------

    def apply_mode_map(self, mm: "ModeMap") -> FockState:
        out: dict[Monomial, Amplitude] = {}
        for mon, amp in self._terms.items():
            partial: dict[Monomial, Amplitude] = {(): amp}
            for m in mon:
                image = mm.image(m)
                nxt: dict[Monomial, Amplitude] = {}
                for pm, pa in partial.items():
                    for om, oa in image:
                        key = monomial(*pm, om)
                        a = pa * oa
                        cur = nxt.get(key)
                        na = a if cur is None else cur + a
                        if na.is_zero:
                            nxt.pop(key, None)
                        else:
                            nxt[key] = na
                partial = nxt
            for m2, a2 in partial.items():
                cur = out.get(m2)
                na = a2 if cur is None else cur + a2
                if na.is_zero:
                    out.pop(m2, None)
                else:
                    out[m2] = na
        return FockState.__new_canonical(out)

    # -- measurement ---------------------------------------------------------

    def pattern_probability(self, pattern: Iterable[Mode], delta: float | None = None) -> Fraction | float:
        mon = monomial(*pattern)
        amp = self._terms.get(mon)
        if amp is None:
            return Fraction(0)
        return amp.abs2(delta) * multiplicity_factor(mon)

    def norm_squared(self, delta: float | None = None) -> Fraction | float:
        total: Fraction | float = Fraction(0)
        for mon, amp in self._terms.items():
            total += amp.abs2(delta) * multiplicity_factor(mon)
        return total

    def norm_amplitude(self) -> Amplitude:
        """Symbolic <s|s> as an Amplitude (phase cross terms kept exact)."""
        total = Amplitude.zero()
        for mon, amp in self._terms.items():
            total = total + amp * amp.conjugate() * multiplicity_factor(mon)
        return total

    # -- rendering -----------------------------------------------------------

    def lines(self) -> list[str]:
        out = []
        for mon, amp in self.terms():
            ops = " ".join(f"a†[{m.spatial},t{m.bin}]" for m in mon) or "1"
            coeff = str(amp)
            if " + " in coeff:
                coeff = f"[{coeff}]"
            out.append(f"{coeff} * {ops}")
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "\n".join(self.lines())

    def __repr__(self) -> str:
        return f"FockState<{self.n_terms} terms>"


class ModeMap:
    """Linear substitution rule for creation operators, one spatial mode at a time.

    Each input spatial mode expands to a list of (output spatial, bin offset,
    amplitude) triples; the amplitude carries phi**offset for delay arms.  The
    rule is covariant in time: an input at bin t lands on bins t + offset.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, tuple[tuple[str, int, Amplitude], ...]]):
        self.entries = {k: tuple(v) for k, v in entries.items()}

    def image(self, m: Mode) -> list[tuple[Mode, Amplitude]]:
        try:
            ent = self.entries[m.spatial]
        except KeyError:
            raise UnmappedMode(f"spatial mode {m.spatial!r} has no image") from None
        return [(Mode(sp, m.bin + dt), amp) for sp, dt, amp in ent]

    def extended(self, pass_through: Iterable[str]) -> ModeMap:
        """Copy with identity entries added for untouched spatial modes."""
        out = dict(self.entries)
        for sp in pass_through:
            if sp in out:
                raise ValueError(f"mode {sp!r} already mapped")
            out[sp] = ((sp, 0, Amplitude.one()),)
        return ModeMap(out)

    def compose(self, later: ModeMap) -> ModeMap:
        """The map 'self then later' as a single substitution."""
        out: dict[str, tuple[tuple[str, int, Amplitude], ...]] = {}
        for sp, ent in self.entries.items():
            acc: dict[tuple[str, int], Amplitude] = {}
            for mid_sp, dt1, a1 in ent:
                for out_sp, dt2, a2 in later.entries[mid_sp]:
                    accumulate(acc, (out_sp, dt1 + dt2), a1 * a2)
            out[sp] = tuple((k[0], k[1], a) for k, a in sorted(acc.items()))
        return ModeMap(out)

    def is_isometry(self) -> bool:
        """Exact orthonormality of all input columns, including time-shifted pairs.

        Offsets are at most one bin here, so checking inputs at bins 0 and 1
        covers every overlapping pair.
        """
        cols: dict[tuple[str, int], dict[Mode, Amplitude]] = {}
        for sp in self.entries:
            for t in (0, 1):
                img: dict[Mode, Amplitude] = {}
                for om, oa in self.image(Mode(sp, t)):
                    img[om] = img.get(om, Amplitude.zero()) + oa
                cols[(sp, t)] = img
        keys = sorted(cols)
        for i, k1 in enumerate(keys):
            for k2 in keys[i:]:
                want = Amplitude.one() if k1 == k2 else Amplitude.zero()
                dot = Amplitude.zero()
                for m, a1 in cols[k1].items():
                    a2 = cols[k2].get(m)
                    if a2 is not None:
                        dot = dot + a1.conjugate() * a2
                if dot != want:
                    return False
        return True
