"""Independent validation of the analytic model: exact enumeration and Monte Carlo.

The enumerator re-derives the accepted-gain and error-gain of the four-party
protocol from first principles: uniform Z-basis inputs, per-party channel
loss, exact propagation of the surviving photons through the analyzer,
threshold detection with per-slot dark counts, relay announcement against the
detection table, and the announced-bits post-selection.  It never looks at
the closed forms in wqkd.keyrate, so it can sit in judgement over them.

Two accounting modes:

* ``paper``    - a relay success needs every clicked slot fed by exactly one
                 photon or one dark event (bunched photon terms are dropped).
* ``physical`` - raw threshold semantics: a slot clicks when at least one
                 photon or dark event lands in it; bunching is invisible.

The Monte-Carlo sampler realizes the same model with counter-based randomness:
fixed-size chunks, each drawing from a Philox stream keyed by (seed, chunk
index), so a tally depends only on the seed and the trial count.  A chunk
draws its trial counts over the live (input class, photon outcome) entries
and one dead bucket of outcomes that are never announced, then its dark
clicks sparsely: a binomial count over the chunk's slots, then that many
distinct positions.  Trials are tallied per entry; only the trials that a
dark click hits are resolved one by one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .amplitude import Amplitude, accumulate
from .analyzer import (
    DISTINGUISHABLE_LABELS,
    INPUT_MODES,
    OUTPUT_MODES,
    derive_detection_table,
    w_analyzer,
)
from .fock import FockState, Mode, ModeMap, Monomial, multiplicity_factor
from .keyrate import left_sum

N_SLOTS = 16  # 4 output spatial modes x 4 time bins
_CHUNK = 1 << 16  # fixed chunk size; part of the determinism contract

_LABEL_TO_IDX = {label: i for i, label in enumerate(DISTINGUISHABLE_LABELS)}
_SLOT_OFFSET = {spatial: 4 * i for i, spatial in enumerate(OUTPUT_MODES)}  # 4 time bins per output mode


def slot_mask(mon: Iterable[Mode]) -> int:
    mask = 0
    for m in mon:
        mask |= 1 << (_SLOT_OFFSET[m.spatial] + m.bin)
    return mask


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one enumeration or simulation run."""

    etas: tuple = (0.5, 0.5, 0.5, 0.5)
    y0: float | Fraction = 6.02e-6
    mode: str = "physical"  # accounting: "paper" or "physical"
    basis: str = "z"
    announcers: tuple[int, int] = (0, 1)
    trials: int = 1_000_000
    seed: int = 1
    delta: float = 0.0  # only X-basis propagation depends on it

    def __post_init__(self):
        if self.mode not in ("paper", "physical"):
            raise ValueError(f"unknown accounting mode {self.mode!r}")
        if self.basis not in ("z", "x"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if len(self.etas) != 4:
            raise ValueError("four per-party transmittances are required")
        if not all(0 <= eta <= 1 for eta in self.etas):
            raise ValueError(f"transmittances must lie in [0, 1], got {self.etas}")
        if not 0 <= self.y0 < 1:
            raise ValueError(f"dark-count probability y0 must lie in [0, 1), got {self.y0}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delay delta must be finite, got {self.delta}")
        if len(set(self.announcers)) != 2 or not all(0 <= r < 4 for r in self.announcers):
            raise ValueError("announcers must be two distinct party indices")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            # a float or a bool is an integer only by accident of its value
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def key_holders(self) -> tuple[int, int]:
        rest = [i for i in range(4) if i not in self.announcers]
        return (rest[0], rest[1])


# -- exact propagation of survivor configurations ----------------------------

def _survivor_state(survivors: tuple[tuple[int, int], ...], basis: str) -> FockState:
    """Propagated state of the surviving photons (exact, symbolic in phi).

    A photon of party p with bit b enters as sum_t w_t a†[p, t]: w = {b: 1} in
    the Z basis, {0: 1/sqrt2, 1: +-1/sqrt2} in X.  The analyzer is linear, so
    its image is the same weighted sum of the composed map's image of p,
    shifted by t bins, and the survivors' output is their one bin-0 monomial
    propagated through these images.
    """
    root = Amplitude.gauss(1, 0, 1)
    composed = w_analyzer().composed_map()
    images = {}
    for party, bit in survivors:
        sp = INPUT_MODES[party]
        weights = {bit: Amplitude.one()} if basis == "z" else {0: root, 1: -root if bit else root}
        image: dict[tuple[str, int], Amplitude] = {}
        for out, dt, a in composed.entries[sp]:
            for t, w in weights.items():
                accumulate(image, (out, dt + t), a * w)
        images[sp] = tuple((out, dt, a) for (out, dt), a in image.items())
    photons = FockState.from_monomial(Mode(INPUT_MODES[party], 0) for party, _ in survivors)
    return photons.apply_mode_map(ModeMap(images))


def _outcomes(
    survivors: tuple[tuple[int, int], ...], delta: float | None
) -> tuple[tuple[Monomial, Fraction | float, int, bool], ...]:
    """Monomial, probability, slot mask and bunching flag of each output.

    Z basis for ``delta=None``: one phase power per amplitude, so every
    probability is an exact Fraction.  X basis otherwise, evaluated at delta.
    """
    state = _survivor_state(survivors, "z" if delta is None else "x")
    return tuple(
        (mon, amp.abs2(delta) * multiplicity_factor(mon), slot_mask(mon), len(set(mon)) == len(mon))
        for mon, amp in state.terms()
    )


# the analyzer is fixed, so the Z table holds at most 81 survivor configurations
_z_outcomes = functools.cache(functools.partial(_outcomes, delta=None))


def _party_bit(bits: int, party: int) -> int:
    return (bits >> (3 - party)) & 1


# (party, Z bit) of each surviving photon, per input class bits * 16 + survival subset
_SURVIVORS = [
    tuple((party, _party_bit(bits, party)) for party in range(4) if _party_bit(surv, party))
    for bits in range(16)
    for surv in range(16)
]


def _sift(bits: int, cfg: TrialConfig) -> tuple[tuple[int, ...], bool]:
    """The labels that accept input ``bits`` and whether an accepted trial errs.

    Z basis: announced "00" accepts W4,0/W4,1 and "11" accepts W4,c/W4,d.
    X basis: announcers with different x bits accept either group.  The key
    holders keep their bits with the second one flipped, so an error means
    their raw bits are equal.
    """
    ra, rb = cfg.announcers
    a, b = _party_bit(bits, ra), _party_bit(bits, rb)
    if cfg.basis == "x":
        labels = DISTINGUISHABLE_LABELS if a != b else ()
    else:
        labels = ((12, 13) if a else (0, 1)) if a == b else ()
    ha, hb = cfg.key_holders
    return labels, _party_bit(bits, ha) == _party_bit(bits, hb)


@dataclass(frozen=True)
class EnumerationResult:
    mode: str
    q1: float | Fraction
    e1: float | Fraction | None
    gain_cases: tuple
    error_cases: tuple


@dataclass(frozen=True, eq=False)
class _ClickTerms:
    """Photon click terms of one survivor configuration over one label group.

    A term is a (label, pattern, photon outcome) whose outcome slot mask lies
    inside the pattern; its missing count m is the number of pattern slots
    that dark counts must fill.
    """

    k: int  # surviving photons
    paper: Fraction  # summed probability of the terms with one photon per slot
    coeffs: tuple[Fraction, ...]  # coeffs[m]: summed probability of the terms missing m
    probs: np.ndarray  # float probability of each term, in walk order
    missing: np.ndarray  # m of each term

    def click(self, mode: str, powers: list, exact: bool) -> Fraction | float:
        """Sum of probability * y0**m over the terms, given powers[m] = y0**m."""
        if mode == "paper":  # photons land one per slot on a subset of the pattern
            return self.paper * powers[4 - self.k]
        # threshold semantics: any photon outcome inside the pattern counts;
        # darks complete the unclicked pattern slots
        if exact:
            click = Fraction(0)
            for c, power in zip(self.coeffs, powers):
                click += c * power
            return click
        if not self.probs.size:
            return Fraction(0)
        # added strictly left to right in walk order, as the walk itself adds
        return float(np.add.accumulate(self.probs * np.array(powers)[self.missing])[-1])


@functools.cache  # at most 81 survivor configurations x 2 Z label groups
def _click_terms(survivors: tuple, labels: tuple[int, ...]) -> _ClickTerms:
    """Walk labels, then their patterns in table order, then photon outcomes."""
    patterns = derive_detection_table().patterns
    outcomes = _z_outcomes(survivors)
    unit = math.lcm(*(p.denominator for _, p, _, _ in outcomes))  # exact sums in integers
    rows = [
        (mmask, 4 - bin(mmask).count("1"), free, p.numerator * (unit // p.denominator), float(p))
        for _, p, mmask, free in outcomes
    ]
    paper = 0
    coeffs = [0] * 5
    probs, missing = [], []
    for label in labels:
        for pattern in patterns[label]:
            pmask = slot_mask(pattern)
            for mmask, m, free, units, p in rows:
                if mmask & ~pmask:
                    continue
                if free:
                    paper += units
                coeffs[m] += units
                probs.append(p)
                missing.append(m)
    return _ClickTerms(
        len(survivors),
        Fraction(paper, unit),
        tuple(Fraction(c, unit) for c in coeffs),
        np.array(probs, dtype=float),
        np.array(missing, dtype=np.intp),
    )


def exact_enumerate(cfg: TrialConfig) -> EnumerationResult:
    """Exact accepted-gain and error-gain, split by photon-survival case.

    Sums over the 16 equally likely Z-basis inputs, the 16 photon-survival
    subsets, the exact click distribution of the surviving photons, and the
    dark-count completions of each detection-table pattern.  Exact (Fraction)
    when the channel parameters are Fractions.  The click terms of each
    survivor configuration are cached; a float y0 adds them in the order of
    the (label, pattern, outcome) walk, so float results are the walk's to the
    last bit.
    """
    if cfg.basis != "z":
        raise ValueError("exact enumeration is defined for the Z basis")
    y0 = cfg.y0
    powers = [y0**m for m in range(5)]
    exact_y0 = isinstance(y0, (int, Fraction))
    no_dark_rest = (1 - y0) ** 12
    weights = []  # of the 16 photon-survival subsets
    for surv in range(16):
        weight = Fraction(1, 16)
        for party in range(4):
            eta = cfg.etas[party]
            weight = weight * eta if _party_bit(surv, party) else weight * (1 - eta)
        weights.append(weight)
    clicks: dict[tuple, Fraction | float] = {}  # per (survivors, labels), at this y0
    gain = [Fraction(0)] * 5
    err = [Fraction(0)] * 5
    for bits in range(16):
        labels, is_error = _sift(bits, cfg)
        if not labels:
            continue
        for surv, weight in enumerate(weights):
            if weight == 0:
                continue
            survivors = _SURVIVORS[bits * 16 + surv]
            k = len(survivors)
            key = (survivors, labels)
            click = clicks.get(key)
            if click is None:
                click = clicks[key] = _click_terms(*key).click(cfg.mode, powers, exact_y0)
            contrib = weight * click * no_dark_rest
            gain[k] += contrib
            if is_error:
                err[k] += contrib
    total_gain = left_sum(gain)
    total_err = left_sum(err)
    e1 = None if total_gain == 0 else total_err / total_gain
    return EnumerationResult(cfg.mode, total_gain, e1, tuple(gain), tuple(err))


def survivor_coefficients(mode: str = "paper") -> dict[frozenset[int], tuple[Fraction, Fraction]]:
    """Exact per-survivor-set polynomial coefficients of the gain and error gain.

    With indicator transmittances, gain = coeff * y0**(4-k) * (1-y0)**12 for
    the surviving set only, so one exact enumeration per subset recovers each
    multilinear coefficient.  The closed-form five-case terms are compared
    against these, coefficient by coefficient.
    """
    y0 = Fraction(1, 3)
    out: dict[frozenset[int], tuple[Fraction, Fraction]] = {}
    for surv in range(16):
        parties = frozenset(p for p in range(4) if (surv >> (3 - p)) & 1)
        etas = tuple(Fraction(1) if p in parties else Fraction(0) for p in range(4))
        cfg = TrialConfig(etas=etas, y0=y0, mode=mode, trials=1)
        res = exact_enumerate(cfg)
        k = len(parties)
        base = y0 ** (4 - k) * (1 - y0) ** 12
        out[parties] = (res.gain_cases[k] / base, res.error_cases[k] / base)
    return out


# -- Monte Carlo --------------------------------------------------------------


@dataclass(frozen=True)
class Tally:
    config: TrialConfig
    trials: int
    announced: int
    accepted: int
    errors: int
    per_case_accepted: tuple[int, int, int, int, int]
    per_case_errors: tuple[int, int, int, int, int]

    @property
    def q1_hat(self) -> float:
        return self.accepted / self.trials

    @property
    def e1_hat(self) -> float | None:
        return None if self.accepted == 0 else self.errors / self.accepted


@dataclass(frozen=True)
class _LiveRows:
    """Live photon outcomes of the 256 input classes (bits * 16 + survival subset).

    An outcome is live when its slot mask lies inside some detection pattern.
    Dark counts only add clicks, so no other outcome can ever be announced.
    """

    label_bit: np.ndarray  # click mask -> 1 << index of its label, 0 if no pattern
    cls: np.ndarray
    prob: np.ndarray  # outcome probability given the class
    mask: np.ndarray
    free: np.ndarray  # no slot holds two photons


@functools.lru_cache(maxsize=2)  # the Z rows and one X delay
def _live_rows(delta: float | None) -> _LiveRows:
    """Live rows: Z basis for ``delta=None``, else X at that delay."""
    label_bit = np.zeros(1 << N_SLOTS, dtype=np.uint8)
    live: set[int] = set()
    for label, pats in derive_detection_table().patterns.items():
        for pattern in pats:
            pmask = slot_mask(pattern)
            label_bit[pmask] = 1 << _LABEL_TO_IDX[label]
            sub = pmask
            while True:  # every submask of the pattern, the empty one included
                live.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & pmask
    # the Z lists are cached; an X delay's lists are built once, here
    outcomes_of = _z_outcomes if delta is None else functools.partial(_outcomes, delta=delta)
    outcomes: list[tuple[float, int, bool]] = []
    spans: dict[tuple, range] = {}  # survivor configuration -> its rows of outcomes
    of_class = []
    for cid in range(256):
        survivors = _SURVIVORS[cid]
        span = spans.get(survivors)
        if span is None:
            # dead outcomes are dropped before their probabilities are converted
            new = [(float(p), m, f) for _, p, m, f in outcomes_of(survivors) if m in live]
            span = spans[survivors] = range(len(outcomes), len(outcomes) + len(new))
            outcomes += new
        of_class.append(span)
    take = np.fromiter(chain.from_iterable(of_class), dtype=np.intp)
    prob, mask, free = (np.array(column)[take] for column in zip(*outcomes))
    return _LiveRows(
        label_bit,
        np.repeat(np.arange(256), [len(span) for span in of_class]),
        prob,
        mask.astype(np.uint32),
        free,
    )


_PHOTONS = np.array([bin(surv).count("1") for surv in range(16)], dtype=np.int64)


@dataclass(frozen=True)
class _Entries:
    """The sampler's live entries for one configuration; all else is dead.

    Entry i gathers the (input class, photon outcome) pairs that tally alike:
    photon slot mask ``mask[i]``, the label bits the announcers' bits accept,
    the error flag of the key holders' bits and the number of surviving
    photons.  ``prob[i]`` is their summed probability.
    """

    prob: np.ndarray
    mask: np.ndarray
    accepts: np.ndarray
    error: np.ndarray
    photons: np.ndarray


def _entries(cfg: TrialConfig, rows: _LiveRows) -> _Entries:
    subsets = np.arange(16)
    weight = np.full(16, 1 / 16)
    for party, eta in enumerate(cfg.etas):
        weight *= np.where(_party_bit(subsets, party), float(eta), 1 - float(eta))
    accepts = np.zeros(16, dtype=np.int64)
    error = np.zeros(16, dtype=np.int64)
    for bits in range(16):
        labels, error[bits] = _sift(bits, cfg)
        accepts[bits] = sum(1 << _LABEL_TO_IDX[label] for label in labels)
    bits, surv = np.divmod(rows.cls, 16)
    prob = weight[surv] * rows.prob
    if cfg.mode == "paper":
        prob[~rows.free] = 0.0  # bunched outcomes join the dead bucket
    kind = (rows.mask.astype(np.int64) << 8) | (accepts[bits] << 4) | (error[bits] << 3) | _PHOTONS[surv]
    # merging shortens the multinomial draw: 9420 live Z rows make 1674 entries
    keep = prob > 0
    kind, inverse = np.unique(kind[keep], return_inverse=True)
    return _Entries(
        np.bincount(inverse, weights=prob[keep]),
        (kind >> 8).astype(np.uint32),
        (kind >> 4) & 15,
        ((kind >> 3) & 1).astype(bool),
        kind & 7,
    )


def run_trials(cfg: TrialConfig) -> Tally:
    """Seeded Monte-Carlo realization of the protocol model.

    Trial t lives in chunk t // 65536; the module docstring says what a chunk
    draws.  A tally ignores trial order, so trials are counted per entry: a
    chunk's live trials are its entry counts in entry order, and only the
    trials that a dark click hits are resolved one by one.
    """
    # a Z configuration carries delta 0.0, so the Z rows must not key on it
    rows = _live_rows(cfg.delta if cfg.basis == "x" else None)
    ent = _entries(cfg, rows)
    pvals = np.append(ent.prob, max(0.0, 1.0 - ent.prob.sum()))
    # tally cell of entry i at label hit h, at cell[i * hits.size + h]: 0 unannounced,
    # 1 announced and rejected, 2 + k accepted in photon case k, 7 + k accepted in error
    hits = np.arange(1 << len(DISTINGUISHABLE_LABELS))  # every label_bit value
    accepted = (ent.accepts[:, None] & hits) != 0
    cell = np.where(accepted, (2 + ent.photons + 5 * ent.error)[:, None], hits != 0).ravel()
    no_dark = cell[np.arange(ent.prob.size) * hits.size + rows.label_bit[ent.mask]]
    y0 = float(cfg.y0)
    counts = np.zeros(ent.prob.size, dtype=np.int64)  # live trials per entry, all chunks
    cells = np.zeros(12, dtype=np.int64)  # trials per tally cell; the no-dark cells come last
    for chunk in range((cfg.trials + _CHUNK - 1) // _CHUNK):
        n = min(_CHUNK, cfg.trials - chunk * _CHUNK)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[cfg.seed, chunk])))
        # trials in the dead bucket (the last count) are never announced
        live = gen.multinomial(n, pvals)[:-1]
        counts += live
        darks = gen.binomial(N_SLOTS * n, y0)
        if not darks:
            continue
        # positions lie below N_SLOTS * _CHUNK = 2**20, and int32 sorts faster
        pos = gen.choice(N_SLOTS * n, darks, replace=False, shuffle=False).astype(np.int32)
        pos.sort()
        # live trials come first, in entry order: entry i's darks are pos[bounds[i]:bounds[i + 1]]
        bounds = np.searchsorted(pos, N_SLOTS * np.cumsum(np.append(0, live), dtype=np.int32))
        trial, slot = np.divmod(pos[: bounds[-1]], N_SLOTS)
        first = np.flatnonzero(np.diff(trial, prepend=-1) != 0)  # each dark-hit trial's first dark
        entry = np.repeat(np.arange(live.size), np.diff(bounds))[first]
        dark = np.bitwise_or.reduceat(np.left_shift(1, slot), first)
        # a dark-hit trial leaves its entry's no-dark cell for the cell of its clicks
        cells += np.bincount(cell[entry * hits.size + rows.label_bit[ent.mask[entry] | dark]], minlength=12)
        cells -= np.bincount(no_dark[entry], minlength=12)
    np.add.at(cells, no_dark, counts)
    case_acc = cells[2:7] + cells[7:]
    return Tally(
        cfg,
        cfg.trials,
        int(cells[1:].sum()),
        int(case_acc.sum()),
        int(cells[7:].sum()),
        tuple(int(x) for x in case_acc),
        tuple(int(x) for x in cells[7:]),
    )


@dataclass(frozen=True)
class EstimateReport:
    q1_hat: float
    q1_ci: tuple[float, float]
    e1_hat: float | None
    e1_ci: tuple[float, float] | None
    per_case_fraction: tuple[float, float, float, float, float]
    note: str = ""


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # at p = 0 or 1 the bound is exactly 0 or 1; the float difference is not
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def estimate(t: Tally) -> EstimateReport:
    q1_ci = wilson_interval(t.accepted, t.trials)
    if t.accepted == 0:
        return EstimateReport(0.0, q1_ci, None, None, (0.0,) * 5, "no accepted events: e1 undefined")
    fracs = tuple(c / t.accepted for c in t.per_case_accepted)
    note = "" if t.config.basis == "z" else "x basis: 'errors' counts equal key-holder x bits"
    return EstimateReport(
        t.q1_hat,
        q1_ci,
        t.e1_hat,
        wilson_interval(t.errors, t.accepted),
        fracs,
        note,
    )
