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

Both read the live outcome tables of ``analyzer.relay()``, which also keeps
the enumerator's plan per announcer pair and the sampler's entry table per
sift, dead bucket included.  A call only weights the entries: one that a
transmittance of 0 or 1 empties stays in the draw and gets no trial.

The Monte-Carlo sampler realizes the same model with counter-based randomness:
fixed-size chunks, each drawing from a Philox stream keyed by (seed, chunk
index), so a tally depends only on the seed and the trial count.  A chunk
draws its trial counts over the live (input class, photon outcome) entries
and one dead bucket of outcomes that are never announced, then its dark
clicks sparsely: a binomial count over the chunk's slots, then that many
distinct positions.  Trials are tallied per entry.  A chunk does nothing but
draw: its counts and positions wait in a hold, which one vectorized pass
resolves once it holds enough darks or chunks, and after the last chunk.  The
pass groups the held darks by the trial they hit, ORs their slot bits and
moves each hit trial from its entry's no-dark tally cell to the cell of its
clicks.  A chunk at a dense dark rate fills the hold alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analyzer import (
    DISTINGUISHABLE_LABELS,
    N_SLOTS,
    _LABEL_TO_IDX,
    derive_detection_table,
    relay,
    slot_mask,
)
from .keyrate import left_sum

_CHUNK = 1 << 16  # fixed chunk size; part of the determinism contract
# the hold is resolved once it holds this many darks, fewer than a chunk draws
# at y0 = 1e-2 (about 10.5k), so a dense chunk is resolved alone ...
_HOLD_DARKS = 4096
_HOLD_CHUNKS = 64  # ... or this many chunks, which bounds the held counts
_DARK_COST = 16  # trials' time per dark click; measured in README "CLI"
_BUDGET = 10**10 * (1 + _DARK_COST * N_SLOTS * 6.02e-6)  # trials + _DARK_COST * dark clicks: 10**10 at default y0


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
        integers = [("trials", self.trials), ("seed", self.seed)]
        integers += [(f"announcers[{i}]", r) for i, r in enumerate(self.announcers)]
        for name, value in integers:
            # a float or a bool is an integer only by accident of its value
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if len(self.announcers) != 2 or len(set(self.announcers)) != 2 or not all(0 <= r < 4 for r in self.announcers):
            raise ValueError("announcers must be two distinct party indices")
        limit = math.floor(_BUDGET / (1 + _DARK_COST * N_SLOTS * self.y0))  # expected darks: trials * N_SLOTS * y0
        if not 1 <= self.trials <= limit:
            raise ValueError(f"trials must lie in [1, {limit}] at y0={self.y0}, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _party_bit(bits: int, party: int) -> int:
    return (bits >> (3 - party)) & 1


# (party, Z bit) of each surviving photon, per input class bits * 16 + survival subset
_SURVIVORS = [
    tuple((party, _party_bit(bits, party)) for party in range(4) if _party_bit(surv, party))
    for bits in range(16)
    for surv in range(16)
]


def _sift(bits: int, basis: str, announcers: tuple[int, int]) -> tuple[tuple[int, ...], bool]:
    """The labels that accept input ``bits`` and whether an accepted trial errs.

    Z basis: announced "00" accepts W4,0/W4,1 and "11" accepts W4,c/W4,d.
    X basis: announcers with different x bits accept either group.  The key
    holders keep their bits with the second one flipped, so an error means
    their raw bits are equal.
    """
    a, b = (_party_bit(bits, r) for r in announcers)
    if basis == "x":
        labels = DISTINGUISHABLE_LABELS if a != b else ()
    else:
        labels = ((12, 13) if a else (0, 1)) if a == b else ()
    ha, hb = (_party_bit(bits, party) for party in range(4) if party not in announcers)
    return labels, ha == hb


def _survival_weights(etas: tuple) -> list:
    """The weight of each photon-survival subset in an input class: 1/16
    times eta or 1 - eta of each party, multiplied party by party."""
    # Fraction(1, 16) * float is 0.0625 * float: the same bits, no Fraction dispatch
    first = 1 / 16 if isinstance(etas[0], float) else Fraction(1, 16)
    factors = [(1 - eta, eta) for eta in etas]
    weights = []
    for surv in range(16):
        weight = first
        for party, factor in enumerate(factors):
            weight = weight * factor[_party_bit(surv, party)]
        weights.append(weight)
    return weights


@dataclass(frozen=True)
class EnumerationResult:
    q1: float | Fraction
    e1: float | Fraction | None
    gain_cases: tuple
    error_cases: tuple


def _click_terms(survivors: tuple, labels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Walk labels, then their patterns in table order, then photon outcomes.

    A term is a (label, pattern, photon outcome) whose outcome slot mask lies
    inside the pattern; its missing count m is the number of pattern slots
    that dark counts must fill.  Returns the walk: the float probability and
    m of each term, in walk order, which is the row-major order of one
    boolean matrix, the labels' patterns by the survivors' live outcomes.
    """
    patterns = derive_detection_table().patterns
    span, prob, mask, _ = relay().z_outcomes
    own = span[survivors]  # its live outcomes: no other one lies inside a pattern
    pmasks = np.array([slot_mask(pattern) for label in labels for pattern in patterns[label]])
    term = np.nonzero((mask[own] & ~pmasks[:, None]) == 0)[1] + own.start
    bits = np.unpackbits(mask[term, None].view(np.uint8), axis=1).sum(axis=1, dtype=np.intp)
    return prob[term], 4 - bits  # every pattern has four slots


@dataclass(frozen=True, eq=False)
class _Plan:
    """Exact enumeration for one announcer pair, all but the channel.

    ``entries`` lists each (input bits, survival subset) the announcers
    accept, in the enumeration's loop order, as (survival subset, key,
    surviving photons, error flag); a key indexes the distinct (survivors,
    labels) walks (``_click_terms``).  The float click sums of all keys come
    from one column pass over ``probs`` and ``missing``; k photons one per
    slot click k slots, so a key's paper sum is its walk's sum at m = 4 - k.
    """

    entries: tuple[tuple[int, int, int, bool], ...]
    exact: tuple[tuple[Fraction, ...], ...]  # per walk: coeffs[m], the summed probability of its terms missing m
    paper: tuple[tuple[float, int], ...]  # per key: float(paper sum), 4 - k
    column: np.ndarray  # per key: its walk's column
    probs: np.ndarray  # column per distinct walk: its terms' float probabilities in order, zero-padded
    missing: np.ndarray  # m of each term, zero-padded

    def click(self, key: int, mode: str, powers: list) -> Fraction:
        """A key's exact sum of probability * y0**m over its terms, given powers[m] = y0**m."""
        coeffs = self.exact[self.column[key]]
        if mode == "paper":  # photons land one per slot on a subset of the pattern
            m = self.paper[key][1]
            return coeffs[m] * powers[m]
        # threshold semantics: any photon outcome inside the pattern counts;
        # darks complete the unclicked pattern slots
        return left_sum(c * power for c, power in zip(coeffs, powers))

    def float_clicks(self, mode: str, powers: list) -> list[float]:
        """Each key's click sum at a float y0, given powers[m] = y0**m, with
        the bits of ``Fraction`` arithmetic on the walk's floats."""
        if mode == "paper":  # Fraction * float is float(Fraction) * float
            return [paper * powers[m] for paper, m in self.paper]
        # each column added strictly top to bottom, as the walk adds its terms;
        # every key has terms, and the pads add +0.0 to a non-negative sum
        sums = np.add.accumulate(self.probs * np.array(powers)[self.missing], axis=0)[-1]
        return sums[self.column].tolist()


def _plan(announcers: tuple[int, int]) -> _Plan:
    """The sift and the click terms of one sorted announcer pair, walked once into the relay's plans."""
    if plan := relay().plans.get(announcers):
        return plan
    keys: dict[tuple, int] = {}
    entries = []
    for bits in range(16):
        labels, is_error = _sift(bits, "z", announcers)
        if not labels:
            continue
        for surv in range(16):
            survivors = _SURVIVORS[bits * 16 + surv]
            key = keys.setdefault((survivors, labels), len(keys))
            entries.append((surv, key, len(survivors), is_error))
    walks: dict[bytes, tuple] = {}  # 28 or 29 distinct walks for the 72 keys of a pair
    column = []
    for key in keys:
        p, m = _click_terms(*key)
        column.append(walks.setdefault(p.tobytes() + m.tobytes(), (len(walks), p, m))[0])
    probs = np.zeros((max(len(p) for _, p, _ in walks.values()), len(walks)))
    missing = np.zeros(probs.shape, np.intp)
    for j, p, m in walks.values():
        probs[: len(p), j] = p
        missing[: len(m), j] = m
    # every Z float is exact, so each sum is a whole number of the finest unit 1/2**n among the
    # terms: n is 11 for this analyzer, so int64 holds every sum
    unit = 1
    while (probs * unit % 1).any():
        unit *= 2
    units = (probs * unit).astype(np.int64)
    sums = np.stack([np.where(missing == m, units, 0).sum(axis=0) for m in range(5)], axis=1)
    exact = tuple(tuple(Fraction(c, unit) for c in walk) for walk in sums.tolist())
    paper = tuple((float(exact[j][4 - len(s)]), 4 - len(s)) for j, (s, _) in zip(column, keys))  # m = 4 - k
    plan = _Plan(tuple(entries), exact, paper, np.array(column), probs, missing)
    return relay().plans.setdefault(announcers, plan)


def exact_enumerate(cfg: TrialConfig) -> EnumerationResult:
    """Exact accepted-gain and error-gain, split by photon-survival case.

    Sums over the 16 equally likely Z-basis inputs, the 16 photon-survival
    subsets, the exact click distribution of the surviving photons, and the
    dark-count completions of each detection-table pattern.  Exact (Fraction)
    when the channel parameters are Fractions.  The sift and the click terms
    of each announcer pair are cached (``_plan``).  An exact y0 sums a key's
    exact coefficients when a weight first needs it.  A float y0 evaluates
    all keys at once: a paper click is float(paper) * y0**(4 - k), which is
    what the Fraction gives; a physical click adds the key's terms strictly
    in the order of the (label, pattern, outcome) walk, down its column of a
    cumulative sum.  The weights and the case totals then take the same
    Python operations, in the same order, as the walk, so float results are
    the walk's to the last bit, and a case no weight reaches stays
    ``Fraction(0)``.
    """
    if cfg.basis != "z":
        raise ValueError("exact enumeration is defined for the Z basis")
    plan = _plan(tuple(sorted(cfg.announcers)))
    y0 = cfg.y0
    powers = [y0**m for m in range(5)]
    # exact: a key's click is summed when a weight first needs it
    clicks = [None] * len(plan.paper) if isinstance(y0, (int, Fraction)) else plan.float_clicks(cfg.mode, powers)
    no_dark_rest = (1 - y0) ** 12
    weights = _survival_weights(cfg.etas)
    gain = [Fraction(0)] * 5
    err = [Fraction(0)] * 5
    for surv, key, k, is_error in plan.entries:
        weight = weights[surv]
        if weight == 0:
            continue
        click = clicks[key]
        if click is None:
            click = clicks[key] = plan.click(key, cfg.mode, powers)
        contrib = weight * click * no_dark_rest
        gain[k] += contrib
        if is_error:
            err[k] += contrib
    total_gain = left_sum(gain)
    total_err = left_sum(err)
    e1 = None if total_gain == 0 else total_err / total_gain
    return EnumerationResult(total_gain, e1, tuple(gain), tuple(err))


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

    @property
    def per_case_fraction(self) -> tuple[float, float, float, float, float] | None:
        """Each photon case's share of the accepted trials; ``None`` (0/0) with none accepted."""
        return None if self.accepted == 0 else tuple(c / self.accepted for c in self.per_case_accepted)


_PHOTONS = np.array([bin(surv).count("1") for surv in range(16)], dtype=np.int64)


def _entry_merge(delta: float | None, mode: str, announcers: tuple[int, int]) -> tuple:
    """The sampler's entry table for one sift, before weights: the Z table's
    for ``delta=None``, else the X table's at delta.

    The table's rows are laid out per input class (bits * 16 + survival
    subset), each class holding its survivor configuration's span.  Entry i
    gathers the rows that tally alike: same photon slot mask ``mask[i]``,
    labels the announcers' bits accept, error flag of the key holders' bits
    and number of surviving photons.  ``cell[i * 16 + h]`` is entry i's tally
    cell when the clicks hit label bits h: 0 unannounced, 1 announced and
    rejected, 2 + k accepted in photon case k, 7 + k accepted in error;
    ``no_dark[i]`` is its cell when no dark click lands.  Returns the
    survival subset and probability of each row the mode keeps, the entry it
    joins, ``no_dark``, and ``mask`` and the flat ``cell`` with the dead
    bucket's row last.  The relay keeps it: a hit reads no table.
    """
    merges, key = relay().merges, (delta, mode, announcers)
    if key in merges:
        return merges[key]
    basis = "z" if delta is None else "x"
    span, prob, mask, free = relay().z_outcomes if delta is None else relay().x_outcomes(delta)
    spans = [span[survivors] for survivors in _SURVIVORS]
    take = np.concatenate([np.arange(s.start, s.stop) for s in spans])
    cls = np.repeat(np.arange(256), [s.stop - s.start for s in spans])
    if mode == "paper":  # bunched outcomes join the dead bucket
        cls, take = cls[free[take]], take[free[take]]
    accepts = np.zeros(16, dtype=np.int64)
    error = np.zeros(16, dtype=np.int64)
    for bits in range(16):
        labels, error[bits] = _sift(bits, basis, announcers)
        accepts[bits] = sum(1 << _LABEL_TO_IDX[label] for label in labels)
    bits, surv = np.divmod(cls, 16)
    kind = (mask[take] << 8) | (accepts[bits] << 4) | (error[bits] << 3) | _PHOTONS[surv]
    # merging shortens the multinomial draw: 9420 live Z rows make 1674 entries
    kind, inverse = np.unique(kind, return_inverse=True)
    mask = (kind >> 8).astype(np.uint32)
    accepts, error, photons = (kind >> 4) & 15, (kind >> 3) & 1, kind & 7
    hits = np.arange(1 << len(DISTINGUISHABLE_LABELS))  # every label_bit value
    cell = np.where((accepts[:, None] & hits) != 0, (2 + photons + 5 * error)[:, None], hits != 0).astype(np.int8)
    no_dark = cell[np.arange(kind.size), relay().click_lookup[0][mask]]
    # the dead bucket's row clicks nowhere and tallies in cell 0, which no count
    # reads; a uint32 0 keeps mask uint32 (a plain 0 would promote it to int64)
    mask, cell = np.append(mask, np.uint32(0)), np.append(cell, np.zeros_like(cell[0]))
    if len(merges) == 4:  # the oldest goes
        del merges[next(iter(merges))]
    # kept as long as the rows are, so the small-valued columns are stored compactly
    return merges.setdefault(key, (surv.astype(np.uint8), prob[take], inverse, no_dark, mask, cell))


def _weighted_merge(cfg: TrialConfig) -> tuple:
    """The entry table of ``cfg``'s sift, weighted by its etas: each entry's
    probability, then ``_entry_merge``'s ``no_dark``, ``mask`` and ``cell``."""
    # a Z configuration carries delta 0.0, so the Z table must not key on it;
    # the sift is symmetric in the announcers, so a pair and its reverse share a merge
    delta = cfg.delta if cfg.basis == "x" else None
    surv, prob, inverse, no_dark, mask, cell = _entry_merge(delta, cfg.mode, tuple(sorted(cfg.announcers)))
    weight = np.array(_survival_weights(tuple(map(float, cfg.etas))))
    # a row of weight 0.0 adds +0.0, which leaves every float sum as it was; an
    # entry it empties stays in the draw, where multinomial gives it no trial
    prob = np.bincount(inverse, weights=weight[surv] * prob, minlength=no_dark.size)
    return prob, no_dark, mask, cell


def _dark_hits(positions: list, darks: list, before: int) -> tuple[np.ndarray, np.ndarray]:
    """The hold trials below ``before`` that held darks hit, in order, and
    the slot bits each one's darks set: position p of held chunk k hits slot
    p % N_SLOTS of hold trial k * _CHUNK + p // N_SLOTS."""
    # hold positions lie below N_SLOTS * _CHUNK * _HOLD_CHUNKS = 2**26, and int32 sorts faster
    pos = np.concatenate(positions, dtype=np.int32, casting="same_kind")
    pos += np.repeat(np.arange(len(darks), dtype=np.int32) * (N_SLOTS * _CHUNK), darks)
    pos.sort()
    pos = pos[: np.searchsorted(pos, N_SLOTS * before)]
    trial = pos // N_SLOTS  # numpy divides by a scalar fast, but takes remainders slowly
    first = np.flatnonzero(np.diff(trial, prepend=-1) != 0)  # each dark-hit trial's first dark
    slot = pos & (N_SLOTS - 1)  # N_SLOTS is a power of two
    return trial[first], np.bitwise_or.reduceat(np.left_shift(1, slot), first)


def _dark_moves(held: np.ndarray, positions: list, darks: list, mask, cell) -> tuple[np.ndarray, np.ndarray]:
    """The held chunks' dark-hit trials, each of which leaves its entry's
    no-dark cell for the cell of its clicks with the darks ORed in: how many
    land in each tally cell, and how many leave each entry.

    ``held`` lists the held chunks' counts one chunk after another, each
    chunk's dead bucket last, so every held chunk but the last sums to
    ``_CHUNK`` and the running sum of ``held`` ends each (chunk, entry) run
    of hold trials.  ``mask`` and the flat ``cell`` have a row for the dead
    bucket too.  The last chunk's dead trials end the hold, so their darks
    are cut before any work: all the dead darks of a chunk held alone.
    """
    label_bit = relay().click_lookup[0]
    ends, width = np.cumsum(held, dtype=np.int32), mask.size
    hit, dark = _dark_hits(positions, darks, ends[-1] - held[-1])
    if hit.size < ends.size:  # the fewer sorted values are searched among the more
        entry = np.searchsorted(ends, hit, side="right") % width
        left = np.bincount(entry, minlength=width)
    else:
        runs = np.diff(np.searchsorted(hit, ends), prepend=0)  # hit trials per (chunk, entry) run
        entry = np.repeat(np.tile(np.arange(width), len(darks)), runs)
        left = runs.reshape(-1, width).sum(axis=0)
    moved = cell[entry * (cell.size // width) + label_bit[mask[entry] | dark]]
    return np.bincount(moved, minlength=12), left


def run_trials(cfg: TrialConfig) -> Tally:
    """Seeded Monte-Carlo realization of the protocol model.

    Trial t lives in chunk t // 65536; the module docstring says what a chunk
    draws.  A tally ignores trial order, so trials are counted per entry: a
    chunk's trials are its entry counts in entry order, the dead bucket last.
    A chunk only draws: its counts and dark positions wait in a hold, which
    ``_dark_moves`` resolves in one pass once it holds ``_HOLD_DARKS`` darks
    or ``_HOLD_CHUNKS`` chunks, and after the last chunk.
    """
    prob, no_dark, mask, cell = _weighted_merge(cfg)
    pvals = np.append(prob, max(0.0, 1.0 - prob.sum()))
    y0 = float(cfg.y0)
    counts = np.zeros(pvals.size, dtype=np.int64)  # no-dark trials per entry, dead bucket last
    cells = np.zeros(12, dtype=np.int64)  # trials per tally cell
    lives, positions, darks = [], [], []  # the hold: each held chunk's counts, dark positions and darks
    held_darks = 0
    last = (cfg.trials - 1) // _CHUNK
    for chunk in range(last + 1):
        n = min(_CHUNK, cfg.trials - chunk * _CHUNK)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[cfg.seed, chunk])))
        lives.append(gen.multinomial(n, pvals))
        d = gen.binomial(N_SLOTS * n, y0)
        if d:
            positions.append(gen.choice(N_SLOTS * n, d, replace=False, shuffle=False))
            held_darks += d
        darks.append(d)
        if chunk < last and held_darks < _HOLD_DARKS and len(lives) < _HOLD_CHUNKS:
            continue
        held = np.concatenate(lives)
        counts += held.reshape(-1, pvals.size).sum(axis=0)
        if held_darks:
            moved, left = _dark_moves(held, positions, darks, mask, cell)
            cells += moved
            counts -= left
        lives, positions, darks, held_darks = [], [], [], 0
    np.add.at(cells, no_dark, counts[:-1])
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


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    z = 1.959963984540054  # two-sided 95%
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # at p = 0 or 1 the bound is exactly 0 or 1; the float difference is not
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)

