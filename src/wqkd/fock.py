"""Multi-mode bosonic states as exact sums of creation-operator monomials.

A monomial is a sorted tuple of (spatial mode, time bin) slots, one entry per
creation operator acting on the vacuum.  States map monomials to exact
:class:`~wqkd.amplitude.Amplitude` coefficients; zero coefficients are never
stored.  Mode maps substitute each creation operator by a finite linear
combination of output operators, with one phi phase power per delay traversed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .amplitude import Amplitude, _lift, _reduce_rows, _ring_mul, accumulate
from .errors import UnmappedMode

SPATIAL_ORDER = tuple("abcdefghjklmsuvw")  # alphabetical, so plain Mode order is the slot order


class Mode(NamedTuple):
    spatial: str
    bin: int

    def __str__(self) -> str:
        return f"{self.spatial}{self.bin}"


def mode(spatial: str, t: int) -> Mode:
    if spatial not in SPATIAL_ORDER:
        raise ValueError(f"unknown spatial mode {spatial!r}")
    if t < 0:
        raise ValueError("time bin must be non-negative")
    return Mode(spatial, t)


Monomial = tuple[Mode, ...]


def monomial(*modes: Mode) -> Monomial:
    return tuple(sorted(modes))


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

    def scaled(self, amp: Amplitude | int) -> FockState:
        if isinstance(amp, int):
            amp = Amplitude.gauss(amp)
        return FockState({m: a * amp for m, a in self._terms.items()})

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
        """Substitute every creation operator by its image under ``mm``.

        One canonical Amplitude per output: the blocks of :meth:`image_rows`
        of each photon number are summed (:func:`_block_sum`), and each
        output's rows reduced.
        """
        slots, sources = self.image_rows(mm)
        groups = groupby(sources, key=len)  # image_rows keeps each photon number's monomials together
        return FockState._from_rows(slots, [_block_sum(sources, [[(m, 1) for m in group]], 0) for _, group in groups])

    @staticmethod
    def _from_rows(slots: list[Mode], merged: Iterable[tuple]) -> FockState:
        """The state of summed kernel rows: one canonical Amplitude per output.

        Each of ``merged`` is one input's (src, codes, ks, nums, h) as
        :func:`_block_sum` gives it; distinct entries hold distinct outputs.
        """
        out: dict[Monomial, Amplitude] = {}
        for _, codes, ks, nums, h in merged:
            coefficients = zip(ks.tolist(), zip(*(column.tolist() for column in _reduce_rows(nums, h))))
            for c, terms in groupby(zip(codes.tolist(), coefficients), key=itemgetter(0)):
                out[tuple(map(slots.__getitem__, c))] = Amplitude(dict(term for _, term in terms), _canonical=True)
        return FockState.__new_canonical(out)

    def image_rows(self, mm: "ModeMap") -> tuple[list[Mode], dict]:
        """The image under ``mm`` as integer rows, one block per input monomial.

        Exact integer kernel.  Every numerator of the images in use is lifted
        to their largest half-power H, and every numerator of the state to its
        own largest, H0, so an n-photon product lies at half-power H0 + n*H
        with four integers (p, q, r, s) for its coefficient.  The input
        monomials of each photon number are propagated together, at most
        ``_PASS`` at a time to bound the peak memory: photon by photon, on
        rows of (input monomial, sorted slot codes, phase power, numerator),
        with equal rows merged after every photon.

        Returns the sorted output slots and, per input monomial, grouped by
        photon number, the block (codes, ks, nums, h): row i adds
        nums[i] * 2**(-h/2) * phi**ks[i] to the output whose slots are
        ``slots[c] for c in codes[i]``.  Rows are sorted by codes, then by
        phase power, none is zero, and no numerator is in canonical form yet.
        """
        slots, half, index, table = _slot_images(mm, {m for mon in self._terms for m in mon})
        base = max(
            (amp.coefficient(k)[4] for amp in self._terms.values() for k in amp.phase_powers()), default=0
        )
        by_photons: dict[int, list[tuple[Monomial, Amplitude]]] = {}
        for mon, amp in self._terms.items():
            by_photons.setdefault(len(mon), []).append((mon, amp))
        sources: dict[Monomial, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        for n, group in by_photons.items():
            for start in range(0, len(group), _PASS):
                part = group[start : start + _PASS]
                src, *columns = _propagate(part, base, index, table)
                cuts = np.searchsorted(src, np.arange(1, len(part)))  # rows come sorted by source
                for (mon, _), codes, ks, nums in zip(part, *(np.split(column, cuts) for column in columns)):
                    sources[mon] = (codes, ks, nums, base + n * half)
        return slots, sources

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


# -- integer propagation kernel ----------------------------------------------
#
# A block of rows is (src, codes, ks, nums): src[i] is the input monomial row i
# descends from, codes[i] its output slots as ascending indices into the
# call's sorted slot list (so ascending codes are the canonical monomial
# order), ks[i] its phase power and nums[i] its numerator (p, q, r, s) at the
# block's common half-power.  Numerators are int64 wherever a magnitude bound
# rules out overflow, Python ints otherwise.

_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_INT64_LIMIT = 1 << 63


_PASS = 4  # input monomials per kernel pass


def _propagate(group: list[tuple[Monomial, Amplitude]], base: int, index: dict[Mode, int], table: tuple) -> _Rows:
    """The rows of monomials that hold equally many photons, each source kept
    apart: numerators lifted to half-power ``base``, then times the image of
    every photon in turn."""
    src, ks, lifted = [], [], []
    for i, (_, amp) in enumerate(group):
        for k in amp.phase_powers():
            p, q, r, s, h = amp.coefficient(k)
            src.append(i)
            ks.append(k)
            lifted.append(_lift(p, q, r, s, base - h))
    n = len(group[0][0])
    photons = np.array([[index[m] for m in mon] for mon, _ in group], np.int64).reshape(len(group), n)
    rows = (np.array(src, np.int64), np.zeros((len(src), 0), np.int64), np.array(ks, np.int64), _numerators(lifted))
    for j in range(n):
        rows = _times_image(rows, photons[rows[0], j], table)
    return rows


def _numerators(rows: list[tuple[int, int, int, int]]) -> np.ndarray:
    small = all(abs(v) < _INT64_LIMIT for row in rows for v in row)
    return np.array(rows, dtype=np.int64 if small else object).reshape(len(rows), 4)


def _magnitude(nums: np.ndarray) -> int:
    return int(np.abs(nums).max()) if nums.size else 0


def _slot_images(mm: "ModeMap", inputs: set[Mode]) -> tuple[list[Mode], int, dict[Mode, int], tuple]:
    """Sorted output slots, the images' common half-power H, and the image table.

    Row ``index[m]`` of the table holds the image of input mode m: its first
    ``counts[index[m]]`` entries are (slot code, phase power, numerator), one
    per distinct (slot, phase power).
    """
    raw = {m: mm.image(m) for m in inputs}  # raises UnmappedMode before any work
    half = max(
        (amp.coefficient(k)[4] for img in raw.values() for _, amp in img for k in amp.phase_powers()),
        default=0,
    )
    slots = sorted({om for img in raw.values() for om, _ in img})
    code = {om: i for i, om in enumerate(slots)}
    images = []
    for img in raw.values():
        acc: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        for om, amp in img:
            for k in amp.phase_powers():
                p, q, r, s, h = amp.coefficient(k)
                old = acc.get((code[om], k), (0, 0, 0, 0))
                acc[(code[om], k)] = tuple(a + b for a, b in zip(old, _lift(p, q, r, s, half - h)))
        images.append([(c, k, num) for (c, k), num in acc.items()])
    width = max(map(len, images), default=0)
    padded = [entries + [(0, 0, (0, 0, 0, 0))] * (width - len(entries)) for entries in images]
    shape = (len(images), width)
    table = (
        np.array([[c for c, _, _ in row] for row in padded], np.int64).reshape(shape),
        np.array([[k for _, k, _ in row] for row in padded], np.int64).reshape(shape),
        _numerators([num for row in padded for _, _, num in row]).reshape(*shape, 4),
        np.array([len(entries) for entries in images], np.int64),
    )
    return slots, half, {m: i for i, m in enumerate(raw)}, table


def _times_image(rows: _Rows, modes: np.ndarray, table: tuple) -> _Rows:
    """Each row times every entry of the image of its next input mode, merged."""
    src, codes, ks, nums = rows
    icodes, iks, inums, counts = table
    # a product numerator is at most 6*|a|*|b|, and one row's products have
    # distinct keys, so at most len(ks) products land on one merged row
    if object in (nums.dtype, inums.dtype) or 6 * _magnitude(nums) * _magnitude(inums) * len(ks) >= _INT64_LIMIT:
        nums, inums = nums.astype(object), inums.astype(object)
    per_row = counts[modes]
    left = np.repeat(np.arange(len(ks)), per_row)
    mode = modes[left]
    entry = np.arange(len(left)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    codes = np.sort(np.column_stack((codes[left], icodes[mode, entry])), axis=1)
    prod = _ring_mul(*nums[left].T, *inums[mode, entry].T)
    return _merge(src[left], codes, ks[left] + iks[mode, entry], np.column_stack(prod))


def _block_sum(rows: dict, inputs: list[list[tuple[object, int]]], half: int) -> tuple:
    """The rows of signed sums of inputs, by linearity: input i is 2**(-half/2)
    times the sum of sign * (the input of block ``rows[key]``) over its (key,
    sign) terms.  The blocks (codes, ks, nums, h) share h.  Returns (src,
    codes, ks, nums, h + half), src the input of each row, merged, with
    Python-int numerators where a sum could overflow int64.  A block's rows
    share no key, so inputs of one block each are only signed.
    """
    owner, blocks, signs = zip(*((i, rows[key], sign) for i, terms in enumerate(inputs) for key, sign in terms))
    sizes = [len(block[1]) for block in blocks]
    codes, ks, nums = (np.concatenate(column) for column in list(zip(*blocks))[:3])
    src, nums = np.repeat(owner, sizes), nums * np.repeat(signs, sizes)[:, None]
    width = max(map(len, inputs))  # at most this many rows share a key
    if width > 1:
        if nums.dtype != object and _magnitude(nums) * width >= _INT64_LIMIT:
            nums = nums.astype(object)
        src, codes, ks, nums = _merge(src, codes, ks, nums)
    return src, codes, ks, nums, blocks[0][3] + half


def _merge(src: np.ndarray, codes: np.ndarray, ks: np.ndarray, nums: np.ndarray) -> _Rows:
    """Sum rows with equal source, codes and phase power; drop rows summing to zero."""
    if not len(ks):
        return src, codes, ks, nums
    keys = _packed_keys(src, codes, ks)
    order = np.lexsort(keys[::-1])  # np.lexsort takes its primary key last
    keys = [key[order] for key in keys]
    first = np.zeros(len(ks), bool)
    first[0] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    nums = np.add.reduceat(nums[order], starts, axis=0)
    keep = (nums != 0).any(axis=1)
    picked = order[starts][keep]
    return src[picked], codes[picked], ks[picked], nums[keep]


def _packed_keys(src: np.ndarray, codes: np.ndarray, ks: np.ndarray) -> list[np.ndarray]:
    """The columns (src, codes..., ks) as mixed-radix digits of as few int64
    keys as hold them, primary key first, so that comparing the keys in turn
    compares rows lexicographically."""
    low = int(ks.min())
    n_codes = int(codes.max()) + 1 if codes.size else 1
    columns = [(src, int(src.max()) + 1), *((col, n_codes) for col in codes.T)]
    columns.append((ks - low, int(ks.max()) - low + 1))
    keys: list[np.ndarray] = []
    key, radix = columns[0]
    for col, size in columns[1:]:
        if radix * size < _INT64_LIMIT:
            key, radix = key * size + col, radix * size
        else:
            keys.append(key)
            key, radix = col, size
    keys.append(key)
    return keys


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
