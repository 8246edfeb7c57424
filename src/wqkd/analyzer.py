"""Optical networks for Bell- and W-state analysis and their click statistics.

The W analyzer is four time-bin interferometers feeding two final beam
splitters; inputs on spatial modes a, b, c, d leave on s, u, v, w across time
bins t0..t3.  Click patterns are observable slot sets: threshold detectors
report which (spatial, bin) slots fired, not how many photons fed a slot.

Distinguishability is judged on generic-phase support (a pattern counts as
reachable for a state if its symbolic amplitude is nonzero for some delta).
The three-Bell-state analyzer is the exception: its advertised rates hold at
the calibrated operating point, so the Bell rates are computed there only,
with the phase collapsed to delta = 0 exactly before supports are compared.

The relay's tables are what the W analyzer sees of the parties' surviving
photons: the live outcomes of each survivor configuration, exact in Z and at
one delay in X.  An outcome whose slot mask lies outside every detection
pattern is never announced, since dark counts only add clicks, so its rows
are dropped before any merge.  The one ``relay()`` holds every table.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, groupby, product
from typing import Iterable, Iterator, Mapping

import numpy as np

from .amplitude import _SQRT2, Amplitude, _reduce_rows
from .errors import MixedPhaseWithoutDelta
from .fock import _PASS, FockState, Mode, ModeMap, Monomial, _block_sum, monomial
from .qubits import W_LABELS, bell_state, encode_fock, w_state

INPUT_MODES = ("a", "b", "c", "d")
OUTPUT_MODES = ("s", "u", "v", "w")
DISTINGUISHABLE_LABELS = (0, 1, 12, 13)  # W4,0  W4,1  W4,c  W4,d

ClickSet = frozenset[Mode]


def interferometer_map(in_a: str, in_b: str, out_p: str, out_q: str) -> ModeMap:
    """Time-bin interferometer: 50/50 splitters with one delayed arm.

    in_a -> (-out_p,t + phi*out_p,t+1 + i*out_q,t + i*phi*out_q,t+1)/2
    in_b -> ( out_q,t - phi*out_q,t+1 + i*out_p,t + i*phi*out_p,t+1)/2
    """
    if len({in_a, in_b, out_p, out_q}) != 4:
        raise ValueError("interferometer needs four distinct spatial labels")
    half = Amplitude.gauss(1, 0, 2)
    ihalf = Amplitude.gauss(0, 1, 2)
    return ModeMap({
        in_a: (
            (out_p, 0, -half),
            (out_p, 1, half.times_phase(1)),
            (out_q, 0, ihalf),
            (out_q, 1, ihalf.times_phase(1)),
        ),
        in_b: (
            (out_q, 0, half),
            (out_q, 1, -half.times_phase(1)),
            (out_p, 0, ihalf),
            (out_p, 1, ihalf.times_phase(1)),
        ),
    })


def splitter_map(in1: str, in2: str, out1: str, out2: str) -> ModeMap:
    """Plain 50/50 splitter: in1 -> (-i*out1 + out2)/sqrt2, in2 -> (out1 - i*out2)/sqrt2."""
    if len({in1, in2, out1, out2}) != 4:
        raise ValueError("splitter needs four distinct spatial labels")
    rt = Amplitude.gauss(1, 0, 1)
    irt = Amplitude.gauss(0, 1, 1)
    return ModeMap({
        in1: ((out1, 0, -irt), (out2, 0, rt)),
        in2: ((out1, 0, rt), (out2, 0, -irt)),
    })


@dataclass(frozen=True)
class OpticalNetwork:
    """A passive linear network given by its stages, applied in order.

    Propagation substitutes each input creation operator by its image under
    the composed map, so a multi-photon output is built from single-photon
    images in one pass.  The stages stay as the exact oracle: applying them one
    at a time gives the same state.
    """

    stages: tuple[ModeMap, ...]

    def propagate(self, state: FockState) -> FockState:
        return state.apply_mode_map(self.composed_map)

    @functools.cached_property
    def composed_map(self) -> ModeMap:
        return functools.reduce(ModeMap.compose, self.stages)


@functools.cache
def w_analyzer() -> OpticalNetwork:
    """Four time-bin interferometers I..IV feeding the two final splitters.

    Built once; every caller shares the network and its composed map.
    """
    stages = (
        interferometer_map("a", "b", "e", "f").extended("cd"),
        interferometer_map("c", "d", "g", "h").extended("ef"),
        interferometer_map("f", "g", "j", "k").extended("eh"),
        interferometer_map("e", "h", "l", "m").extended("jk"),
        splitter_map("j", "k", "s", "u").extended("lm"),
        splitter_map("l", "m", "v", "w").extended("su"),
    )
    return OpticalNetwork(stages)


def bell_analyzer() -> OpticalNetwork:
    return OpticalNetwork((interferometer_map("a", "b", "e", "f"),))


def click_distribution(state: FockState) -> dict[ClickSet, Fraction]:
    """Exact probability of each clicked-slot set (monomials grouped by support)."""
    out: dict[ClickSet, Fraction] = {}
    for mon, _ in state.terms():
        key = frozenset(mon)
        p = state.pattern_probability(mon)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def _is_coincidence(mon: Monomial) -> bool:
    return len(mon) == 4 and tuple(m.spatial for m in mon) == OUTPUT_MODES


@dataclass(frozen=True)
class DetectionTable:
    """Per-label unique coincidence patterns with exact success probabilities."""

    patterns: Mapping[int, tuple[Monomial, ...]]
    pattern_probs: Mapping[int, tuple[Fraction, ...]]
    success_probability: Mapping[int, Fraction]
    overall: Fraction

    def rows(self) -> list[tuple[str, str, Fraction]]:
        out = []
        for label in sorted(self.patterns):
            for pat, prob in zip(self.patterns[label], self.pattern_probs[label]):
                out.append((f"W4_{W_LABELS[label]}", render_pattern(pat), prob))
        return out


def render_pattern(mon: Monomial) -> str:
    return "".join(str(m) for m in mon)


def parse_pattern(text: str) -> Monomial:
    modes = [Mode(text[i], int(text[i + 1])) for i in range(0, len(text), 2)]
    return monomial(*modes)


def propagate_w_state(label: int) -> FockState:
    """The W analyzer's output for the W state ``label``, from the relay's
    ``w_rows``: no kernel runs once they exist.

    Each W amplitude is +-1/2, so its rows are the signed block sum of its
    four product monomials at half 2 (``fock._block_sum``): the rows that
    propagating the encoded state gives, so the state equals that propagation
    term for term and coefficient for coefficient, in the same order.
    """
    slots, rows = relay().w_rows
    half = Amplitude.gauss(1, 0, 2)
    terms = []
    for mon, amp in encode_fock(w_state(label), INPUT_MODES).terms():
        if amp not in (half, -half):
            raise ValueError(f"W amplitude {amp} is not +-1/2")
        terms.append((mon, 1 if amp == half else -1))
    return FockState._from_rows(slots, [_block_sum(rows, [terms], 2)])


def derive_detection_table(cache: bool = True) -> DetectionTable:
    """Propagate all 16 catalog states and keep patterns unique to one state.

    Each state is its product monomials' signed rows from the relay's
    ``w_rows`` (see ``propagate_w_state``), so the 16 states cost one batch
    of four kernel passes.  Coincidences are monomials with exactly one photon
    in each of s, u, v, w; a pattern is unique when its symbolic amplitude is
    nonzero for exactly one of the 16 inputs.  The result is the relay's
    table; pass cache=False for a fresh relay, whose derivation then serves
    every table built after it.
    """
    if not cache:
        relay.cache_clear()
    return relay().table


def bell_success_rates() -> dict[str, Fraction]:
    """Unique-slot-set success probability per Bell state on the three-state network.

    With delta pinned to zero (stabilized interferometer) the rates come out
    1, 1/2, 1/2, 0 for psi+, psi-, phi+, phi-.
    """
    net = bell_analyzer()
    dists: dict[str, dict[ClickSet, Fraction]] = {}
    for kind in ("psi+", "psi-", "phi+", "phi-"):
        state = net.propagate(encode_fock(bell_state(kind), ("a", "b")))
        dists[kind] = click_distribution(state.collapse_phase())
    counts = Counter(key for dist in dists.values() for key in dist)
    return {
        kind: sum((p for key, p in dist.items() if counts[key] == 1), Fraction(0))
        for kind, dist in dists.items()
    }


# Reference table: the four distinguishable states and their coincidence
# patterns, frozen for the golden-file check.
REFERENCE_PATTERNS: dict[int, tuple[str, ...]] = {
    0: (
        "s0u1v0w2", "s0u1v1w1", "s0u1v1w3", "s0u1v2w2",
        "s0u2v0w1", "s0u2v0w3", "s0u3v0w2", "s1u1v0w1",
        "s1u1v2w1", "s1u3v0w1", "s2u1v1w1", "s2u2v0w1",
    ),
    1: ("s0u1v0w3", "s0u1v2w1", "s0u3v0w1", "s2u1v0w1"),
    12: (
        "s0u2v2w3", "s0u3v1w3", "s1u1v2w3", "s1u3v0w3",
        "s1u3v2w3", "s2u1v2w2", "s2u2v2w1", "s2u2v2w3",
        "s2u3v0w2", "s2u3v1w1", "s2u3v1w3", "s2u3v2w2",
    ),
    13: ("s0u3v2w3", "s2u1v2w3", "s2u3v0w3", "s2u3v2w1"),
}

REFERENCE_SUCCESS = {0: Fraction(3, 64), 1: Fraction(1, 64), 12: Fraction(3, 64), 13: Fraction(1, 64)}
REFERENCE_OVERALL = Fraction(1, 128)


def reference_table() -> DetectionTable:
    patterns = {
        label: tuple(sorted(parse_pattern(p) for p in pats))
        for label, pats in REFERENCE_PATTERNS.items()
    }
    per_pattern = {
        label: tuple(Fraction(1, 256) for _ in pats) for label, pats in patterns.items()
    }
    return DetectionTable(patterns, per_pattern, dict(REFERENCE_SUCCESS), REFERENCE_OVERALL)


# -- the relay's tables: live outcomes of the survivor configurations ---------

N_SLOTS = 16  # 4 output spatial modes x 4 time bins
_SLOT_OFFSET = {spatial: 4 * i for i, spatial in enumerate(OUTPUT_MODES)}  # 4 time bins per output mode
_LABEL_TO_IDX = {label: i for i, label in enumerate(DISTINGUISHABLE_LABELS)}
# (party, Z bit) of each surviving photon: each party absent, or present with
# bit 0 or 1; the 81 configurations by photon number, for the evaluation passes
_CONFIGS = sorted(
    (tuple((p, b) for p, b in enumerate(bits) if b is not None) for bits in product((None, 0, 1), repeat=4)),
    key=lambda c: (len(c), c),
)


def slot_mask(mon: Iterable[Mode]) -> int:
    """The click mask of slots: output mode i, time bin t sets bit 4 * i + t."""
    mask = 0
    for m in mon:
        mask |= 1 << (_SLOT_OFFSET[m.spatial] + m.bin)
    return mask


def _slot_bits(slots: list[Mode]) -> np.ndarray:
    return np.array([slot_mask((m,)) for m in slots], np.int64)


def _product_monomial(survivors: tuple[tuple[int, int], ...]) -> Monomial:
    """The survivors' product monomial: party p with Z bit b is a†[p, b]."""
    return monomial(*(Mode(INPUT_MODES[party], bit) for party, bit in survivors))


def _x_terms(survivors: tuple[tuple[int, int], ...]) -> list[tuple[tuple, int]]:
    """The X input of survivors as signed product monomials, at half k: a
    photon of party p with bit x enters as (a†[p, 0] + (-1)**x a†[p, 1]) /
    sqrt2, so k survivors enter as 2**(-k/2) times the sum over bits z of
    (-1)**(x.z) times the product monomial with bits z."""
    parties = [party for party, _ in survivors]
    return [
        (tuple(zip(parties, zbits)), (-1) ** sum(x & z for (_, x), z in zip(survivors, zbits)))
        for zbits in product((0, 1), repeat=len(survivors))
    ]


def _passes(rows: dict, configs: list, delta: float | None) -> Iterator[tuple[list, tuple]]:
    """The outputs of survivor configurations from their ``rows``, kernel
    blocks per configuration as ``Relay.product_rows`` keeps them: Z basis for
    ``delta=None``, X at delta otherwise.

    A configuration's rows are the signed block sum (``fock._block_sum``) of
    its own monomial in Z, of its ``_x_terms`` in X.  Runs of consecutive
    configurations with equal photon number k go in passes of at most
    ``_PASS``, each configuration's index in the pass as its source, one
    ``_row_outcomes`` call per pass.  Yields each pass's configurations and
    outputs.
    """
    slots = relay().product_rows[0]
    for k, run in groupby(configs, key=len):
        run = list(run)
        for start in range(0, len(run), _PASS):
            part = run[start : start + _PASS]
            inputs, half = ([[(c, 1)] for c in part], 0) if delta is None else (list(map(_x_terms, part)), k)
            yield part, _row_outcomes(slots, *_block_sum(rows, inputs, half), delta)


def _row_outcomes(
    slots: list[Mode],
    src: np.ndarray,
    codes: np.ndarray,
    ks: np.ndarray,
    nums: np.ndarray,
    h: int,
    delta: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The outputs of a block of kernel rows, evaluated at delta.

    Rows come sorted by source, then by codes; a new output starts wherever
    the source or the codes change.  Returns the source, slot codes,
    probability, slot mask and bunching-free flag of each output, in row
    order.

    Each probability is the float of ``Amplitude.abs2(delta) * multiplicity``:
    a single phase power is |c|^2 * mult rounded once.  At ``delta=None`` it
    must be rational with units below 2**53, so exact; the first output that
    is not raises, ``MixedPhaseWithoutDelta`` if it mixes phase powers.  A
    sum at a delay is evaluated in the float operations of
    ``Amplitude.evaluate``: each canonical coefficient times exp(i k delta),
    added in ascending k, then squared in modulus.  Sources evaluated
    together give the values each would give alone.
    """
    if not len(ks):  # every output cancelled
        return src, codes, np.empty(0), np.empty(0, np.int64), np.empty(0, bool)
    if nums.dtype != object and np.abs(nums).max() >= 1 << 26:  # |c|^2 * mult might overflow int64
        nums = nums.astype(object)
    p, q, r, s, hs = _reduce_rows(nums, h)
    first = np.ones(len(ks), bool)  # the first row of each output
    first[1:] = (src[1:] != src[:-1]) | (codes[1:] != codes[:-1]).any(axis=1)
    output = np.cumsum(first) - 1  # of each row
    heads = codes[first]
    mult = np.ones(len(heads), np.int64)  # product of n! over slot occupations
    run = np.ones(len(heads), np.int64)
    for j in range(1, heads.shape[1]):
        run = np.where(heads[:, j] == heads[:, j - 1], run + 1, 1)
        mult *= run
    mask = np.bitwise_or.reduce(_slot_bits(slots)[heads], axis=1)

    prob = np.empty(len(heads))
    single = np.bincount(output) == 1
    # one coefficient: |c|^2 = (plain + root * sqrt2) / 2**h, as _cabs2 has it
    plain, root, h1 = (p * p + q * q + 2 * (r * r + s * s))[first], (2 * (p * r + q * s))[first], hs[first]
    units = plain * mult
    exact = single & (root == 0)
    if delta is None and (bad := np.flatnonzero(~exact | (units >= 1 << 53))).size:
        if not single[bad[0]]:
            raise MixedPhaseWithoutDelta(f"an output mixes phase powers {ks[output == bad[0]].tolist()}: no delta")
        raise ValueError(f"output {render_pattern(slots[i] for i in heads[bad[0]])!r} has no exact float probability")
    # the int64 or Python-int units rounded once, as float(Fraction) rounds them
    prob[exact] = np.ldexp(units[exact].astype(float), -h1[exact])
    irrational = single & (root != 0)
    value = plain[irrational].astype(float) + root[irrational].astype(float) * _SQRT2
    prob[irrational] = np.ldexp(value, -h1[irrational]) * mult[irrational]

    if delta is not None:
        mixed = np.flatnonzero(~single)
        # several: sum_k c_k * exp(i k delta) with a dense column per k over
        # the block's range; a power an output lacks adds +0.0, which changes
        # no sum but the sign of a zero, and abs() drops that sign
        low = int(ks.min())
        phase = _phases(range(low, int(ks.max()) + 1), delta)
        scale = np.array([2.0 ** (-e / 2) for e in range(int(hs.max()) + 1)])[hs]
        re = (p.astype(float) + r.astype(float) * _SQRT2) * scale
        im = (q.astype(float) + s.astype(float) * _SQRT2) * scale
        col = ks - low
        cos, sin = np.array([z.real for z in phase])[col], np.array([z.imag for z in phase])[col]
        terms_re, terms_im = np.zeros((2, len(heads), len(phase)))
        terms_re[output, col] = re * cos - im * sin  # complex product, as CPython forms it
        terms_im[output, col] = re * sin + im * cos
        sum_re, sum_im = np.zeros((2, len(heads)))
        for j in range(len(phase)):
            sum_re += terms_re[:, j]
            sum_im += terms_im[:, j]
        # float ** 2 is C pow, which can round otherwise than x * x
        prob[mixed] = [
            abs(complex(a, b)) ** 2 * m
            for a, b, m in zip(sum_re[mixed].tolist(), sum_im[mixed].tolist(), mult[mixed].tolist())
        ]
    return src[first], heads, prob, mask, mult == 1


def _phases(powers: range, delta: float) -> list[complex]:
    """exp(i k delta) for each phase power k, as ``Amplitude.evaluate`` forms it."""
    phase = []
    for k in powers:
        if not math.isfinite(k * delta):  # cmath.exp would raise, numpy would give nan
            raise ValueError(f"delay delta={delta!r} is too large: phase power {k} times delta overflows")
        phase.append(cmath.exp(1j * k * delta))
    return phase


def _live_outcomes(delta: float | None) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """The live outputs of all 81 survivor configurations: Z basis for
    ``delta=None``, X at delta otherwise.

    Returns the span of each configuration's outputs and the float
    probability, slot mask and bunching-free flag of each output, in the
    order of the configuration's full listing; ``_row_outcomes`` checks
    that every Z float is exact.
    """
    counts, prob, mask, free = [], [], [], []
    for part, (src, _, *columns) in _passes(relay().product_rows[1], _CONFIGS, delta):
        counts += np.bincount(src, minlength=len(part)).tolist()  # the passes keep _CONFIGS' order
        for column, values in zip((prob, mask, free), columns):
            column.append(values)
    span = {c: slice(end - n, end) for c, n, end in zip(_CONFIGS, counts, accumulate(counts))}
    return span, *(np.concatenate(column) for column in (prob, mask, free))


class Relay:
    """The relay's tables, each built when first read, from the one before it:

        w_analyzer -> composed_map -> w_rows -> table -> click_lookup
        -> product_rows -> z_outcomes / x_outcomes(delta) -> plans / merges

    ``x`` holds the last delay a run used and its X table; ``plans`` one plan per
    sorted announcer pair (at most 6); ``merges`` one entry table per delay, mode
    and sorted pair (at most 4, the oldest dropped first).  ``relay.cache_clear()`` drops all.
    """

    def __init__(self):
        self.x, self.plans, self.merges = None, {}, {}

    @functools.cached_property
    def w_rows(self) -> tuple[list[Mode], dict[Monomial, tuple]]:
        """The composed map's image of the 16 four-photon product monomials,
        every row kept: the blocks each W state is a signed sum of, and the
        four-photon blocks of ``product_rows``."""
        four = [_product_monomial(c) for c in _CONFIGS if len(c) == 4]
        return FockState(dict.fromkeys(four, Amplitude.one())).image_rows(w_analyzer().composed_map)

    @functools.cached_property
    def table(self) -> DetectionTable:
        # each label keeps only its coincidence terms, so one whole propagated state is alive at a time
        outputs = {
            label: FockState({mon: amp for mon, amp in propagate_w_state(label).terms() if _is_coincidence(mon)})
            for label in range(16)
        }
        support = {label: {mon for mon, _ in state.terms()} for label, state in outputs.items()}
        counts = Counter(mon for pats in support.values() for mon in pats)
        unique = {label: tuple(sorted(m for m in pats if counts[m] == 1)) for label, pats in support.items()}
        patterns = {label: pats for label, pats in unique.items() if pats}
        per_pattern = {label: tuple(map(outputs[label].pattern_probability, pats)) for label, pats in patterns.items()}
        probs = {label: sum(ps, Fraction(0)) for label, ps in per_pattern.items()}
        overall = sum(probs.values(), Fraction(0)) / 16
        return DetectionTable(patterns, per_pattern, probs, overall)

    @functools.cached_property
    def click_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Per click mask: ``1 << index`` of the label whose pattern it is (0 if
        none), and whether it lies inside some pattern, the empty mask included."""
        label_bit = np.zeros(1 << N_SLOTS, dtype=np.uint8)
        live = np.zeros(1 << N_SLOTS, dtype=bool)
        for label, pats in self.table.patterns.items():
            for pattern in pats:
                label_bit[slot_mask(pattern)] = 1 << _LABEL_TO_IDX[label]
                # every submask of the pattern, the empty one included
                live[[slot_mask(compress(pattern, keep)) for keep in product((0, 1), repeat=len(pattern))]] = True
        return label_bit, live

    @functools.cached_property
    def product_rows(self) -> tuple[list[Mode], dict[tuple[tuple[int, int], ...], tuple]]:
        """The composed map's image of every survivor configuration's product
        monomial, the vacuum included: kernel rows kept apart per
        configuration, every k-photon block at the same half-power, with the
        rows of the outputs outside every detection pattern dropped.  The
        four-photon blocks are cut from ``w_rows``; the kernel runs on the
        vacuum and the monomials of one to three photons only.  Liveness
        depends on an output's slots alone, so every row of an output is kept
        or dropped with it, and so is every X output merged from them.
        """
        w_slots, w_rows = self.w_rows
        fewer = [_product_monomial(c) for c in _CONFIGS if len(c) < 4]
        slots, rows = FockState(dict.fromkeys(fewer, Amplitude.one())).image_rows(w_analyzer().composed_map)
        if slots != w_slots:  # the blocks' slot codes index one list
            raise ValueError("the product monomials and the W batch have different output slots")
        rows.update(w_rows)
        bits, live = _slot_bits(slots), self.click_lookup[1]
        out = {}
        for c in _CONFIGS:
            codes, ks, nums, h = rows[_product_monomial(c)]
            keep = live[np.bitwise_or.reduce(bits[codes], axis=1)]
            out[c] = (codes[keep], ks[keep], nums[keep], h)
        return slots, out

    @functools.cached_property
    def z_outcomes(self) -> tuple:
        return _live_outcomes(None)  # the analyzer is fixed: the 81 configurations once, exact floats

    def x_outcomes(self, delta: float) -> tuple:
        if not (self.x and self.x[0] == delta):
            # four photons reach at most 4x a photon's largest phase power: check each before any work
            top = max(max(amp.phase_powers()) for img in w_analyzer().composed_map.entries.values() for *_, amp in img)
            _phases(range(len(INPUT_MODES) * top + 1), delta)
            self.x = (delta, _live_outcomes(delta))
        return self.x[1]


relay = functools.cache(Relay)
