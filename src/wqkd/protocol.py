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

The Monte-Carlo sampler realizes the same model with counter-based randomness
(fixed-size chunks keyed by (seed, chunk index)), so results are bit-identical
under any degree of parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .amplitude import Amplitude
from .analyzer import (
    DISTINGUISHABLE_LABELS,
    INPUT_MODES,
    OUTPUT_MODES,
    DetectionTable,
    derive_detection_table,
    w_analyzer,
)
from .errors import InvalidLabel, NoAcceptedEvents
from .fock import FockState, Mode, Monomial, monomial
from .keyrate import CaseBreakdown

N_SLOTS = 16  # 4 output spatial modes x 4 time bins
_CHUNK = 1 << 16  # fixed chunk size; part of the determinism contract
_WORDS = 22  # uniforms consumed per trial: bits, 4 survival, pattern, 16 darks

_LABEL_TO_IDX = {label: i for i, label in enumerate(DISTINGUISHABLE_LABELS)}


def slot_index(m: Mode) -> int:
    return OUTPUT_MODES.index(m.spatial) * 4 + m.bin


def slot_mask(mon: Iterable[Mode]) -> int:
    mask = 0
    for m in mon:
        mask |= 1 << slot_index(m)
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
        if len(set(self.announcers)) != 2 or not all(0 <= r < 4 for r in self.announcers):
            raise ValueError("announcers must be two distinct party indices")
        if self.trials < 1:
            raise ValueError("at least one trial is required")

    @property
    def key_holders(self) -> tuple[int, int]:
        rest = [i for i in range(4) if i not in self.announcers]
        return (rest[0], rest[1])


@dataclass(frozen=True)
class SiftRecord:
    label: int
    announcer_bits: tuple[int, int]
    key_bits: tuple[int, int] | None
    accepted: bool
    error: bool | None


def sift(label: int, bits: Sequence[int], roles: tuple[int, int] = (0, 1)) -> SiftRecord:
    """Post-selection on the announced label and the announcers' classical bits.

    Labels W4,0/W4,1 pair with announced "00", W4,c/W4,d with "11".  The two
    key holders keep their bits with one flip applied to the second; an error
    means the flipped bits disagree, i.e. the raw key-holder bits were equal.
    """
    if label not in DISTINGUISHABLE_LABELS:
        raise InvalidLabel(f"label {label} is not announced by the analyzer")
    ann = (bits[roles[0]], bits[roles[1]])
    holders = [i for i in range(4) if i not in roles]
    if label in (0, 1):
        accepted = ann == (0, 0)
    else:
        accepted = ann == (1, 1)
    if not accepted:
        return SiftRecord(label, ann, None, False, None)
    raw = (bits[holders[0]], bits[holders[1]])
    key = (raw[0], 1 - raw[1])
    return SiftRecord(label, ann, key, True, raw[0] == raw[1])


# -- exact propagation of survivor configurations ----------------------------

_Z_OUTCOME_CACHE: dict[tuple, list] = {}


def _survivor_state(survivor_bits: tuple[tuple[int, int], ...]) -> FockState:
    """Propagated state of the surviving photons (Z basis, exact)."""
    if not survivor_bits:
        return FockState.vacuum()
    modes = [Mode(INPUT_MODES[party], bit) for party, bit in survivor_bits]
    return w_analyzer().propagate(FockState.from_monomial(modes))


def _z_outcomes(survivor_bits: tuple[tuple[int, int], ...]) -> list[tuple[Monomial, Fraction, int, bool]]:
    """All output monomials with exact probability, slot mask, bunching flag."""
    cached = _Z_OUTCOME_CACHE.get(survivor_bits)
    if cached is not None:
        return cached
    state = _survivor_state(survivor_bits)
    out = []
    for mon, _ in state.terms():
        prob = state.pattern_probability(mon)  # single phase power: exact
        free = len(set(mon)) == len(mon)
        out.append((mon, prob, slot_mask(mon), free))
    _Z_OUTCOME_CACHE[survivor_bits] = out
    return out


def _party_bit(bits: int, party: int) -> int:
    return (bits >> (3 - party)) & 1


def _allowed_labels(bits: int, announcers: tuple[int, int]) -> tuple[int, ...]:
    ann = (_party_bit(bits, announcers[0]), _party_bit(bits, announcers[1]))
    if ann == (0, 0):
        return (0, 1)
    if ann == (1, 1):
        return (12, 13)
    return ()


@dataclass(frozen=True)
class EnumerationResult:
    mode: str
    q1: float | Fraction
    e1: float | Fraction | None
    gain_cases: tuple
    error_cases: tuple

    @property
    def breakdown(self) -> CaseBreakdown:
        return CaseBreakdown(tuple(self.gain_cases), tuple(self.error_cases))


def exact_enumerate(cfg: TrialConfig, table: DetectionTable | None = None) -> EnumerationResult:
    """Exact accepted-gain and error-gain, split by photon-survival case.

    Sums over the 16 equally likely Z-basis inputs, the 16 photon-survival
    subsets, the exact click distribution of the surviving photons, and the
    dark-count completions of each detection-table pattern.  Exact (Fraction)
    when the channel parameters are Fractions.
    """
    if cfg.basis != "z":
        raise ValueError("exact enumeration is defined for the Z basis")
    tab = table or derive_detection_table()
    y0 = cfg.y0
    no_dark_rest = (1 - y0) ** 12
    pattern_masks: dict[int, list[tuple[Monomial, int]]] = {
        label: [(p, slot_mask(p)) for p in tab.patterns[label]] for label in tab.patterns
    }
    gain = [Fraction(0)] * 5
    err = [Fraction(0)] * 5
    for bits in range(16):
        labels = _allowed_labels(bits, cfg.announcers)
        if not labels:
            continue
        ha, hb = cfg.key_holders
        is_error = _party_bit(bits, ha) == _party_bit(bits, hb)
        for surv in range(16):
            weight = Fraction(1, 16)
            survivors = []
            for party in range(4):
                eta = cfg.etas[party]
                if (surv >> (3 - party)) & 1:
                    weight = weight * eta
                    survivors.append((party, _party_bit(bits, party)))
                else:
                    weight = weight * (1 - eta)
            if weight == 0:
                continue
            k = len(survivors)
            outcomes = _z_outcomes(tuple(survivors))
            if cfg.mode == "paper":
                # photons must land one per slot on a subset of the pattern
                probs = {mon: p for mon, p, _, free in outcomes if free}
                click = Fraction(0)
                for label in labels:
                    for pat, _ in pattern_masks[label]:
                        for sub in combinations(pat, k):
                            p = probs.get(sub)
                            if p:
                                click += p
                click = click * y0 ** (4 - k)
            else:
                # threshold semantics: any photon configuration inside the
                # pattern counts; darks complete the unclicked pattern slots
                click = Fraction(0)
                for label in labels:
                    for _, pmask in pattern_masks[label]:
                        for mon, p, mmask, _ in outcomes:
                            if mmask & ~pmask:
                                continue
                            missing = 4 - bin(mmask).count("1")
                            click += p * y0**missing
            contrib = weight * click * no_dark_rest
            gain[k] += contrib
            if is_error:
                err[k] += contrib
    total_gain = sum(gain)
    total_err = sum(err)
    e1 = None if total_gain == 0 else total_err / total_gain
    return EnumerationResult(cfg.mode, total_gain, e1, tuple(gain), tuple(err))


def survivor_coefficients(
    mode: str = "paper", table: DetectionTable | None = None
) -> dict[frozenset[int], tuple[Fraction, Fraction]]:
    """Exact per-survivor-set polynomial coefficients of the gain and error gain.

    With indicator transmittances, gain = coeff * y0**(4-k) * (1-y0)**12 for
    the surviving set only, so one exact enumeration per subset recovers each
    multilinear coefficient.  The closed-form five-case terms are compared
    against these, coefficient by coefficient.
    """
    tab = table or derive_detection_table()
    y0 = Fraction(1, 3)
    out: dict[frozenset[int], tuple[Fraction, Fraction]] = {}
    for surv in range(16):
        parties = frozenset(p for p in range(4) if (surv >> (3 - p)) & 1)
        etas = tuple(Fraction(1) if p in parties else Fraction(0) for p in range(4))
        cfg = TrialConfig(etas=etas, y0=y0, mode=mode, trials=1)
        res = exact_enumerate(cfg, tab)
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


_X_OUTCOME_CACHE: dict[tuple, list] = {}


def _x_outcomes(survivor_xbits: tuple[tuple[int, int], ...], delta: float) -> list[tuple[float, int, bool]]:
    key = (survivor_xbits, delta)
    cached = _X_OUTCOME_CACHE.get(key)
    if cached is not None:
        return cached
    state = FockState.vacuum()
    root = Amplitude.gauss(1, 0, 1)
    for party, xbit in survivor_xbits:
        sp = INPUT_MODES[party]
        sign = -1 if xbit else 1
        photon = FockState(
            {
                (Mode(sp, 0),): root,
                (Mode(sp, 1),): Amplitude.gauss(sign, 0, 1),
            }
        )
        state = state.tensor(photon)
    state = w_analyzer().propagate(state)
    out = []
    for mon, _ in state.terms():
        p = float(state.pattern_probability(mon, delta))
        out.append((p, slot_mask(mon), len(set(mon)) == len(mon)))
    _X_OUTCOME_CACHE[key] = out
    return out


class _ClassTables:
    """Per-(input bits, survival subset) sampling tables for the MC engine."""

    def __init__(self, cfg: TrialConfig, table: DetectionTable):
        n_classes = 256
        outcome_rows: list[list[tuple[float, int, bool]]] = []
        self.accept_ok = np.zeros(n_classes, dtype=bool)
        self.err_flag = np.zeros(n_classes, dtype=bool)
        self.accept_labels01 = np.zeros(n_classes, dtype=bool)
        self.accept_labelscd = np.zeros(n_classes, dtype=bool)
        self.case_k = np.zeros(n_classes, dtype=np.int8)
        ra, rb = cfg.announcers
        ha, hb = cfg.key_holders
        for bits in range(16):
            ann = (_party_bit(bits, ra), _party_bit(bits, rb))
            for surv in range(16):
                cid = bits * 16 + surv
                survivors = tuple(
                    (p, _party_bit(bits, p)) for p in range(4) if (surv >> (3 - p)) & 1
                )
                self.case_k[cid] = len(survivors)
                self.err_flag[cid] = _party_bit(bits, ha) == _party_bit(bits, hb)
                if cfg.basis == "z":
                    self.accept_labels01[cid] = ann == (0, 0)
                    self.accept_labelscd[cid] = ann == (1, 1)
                    outs = [
                        (float(p), mask, free)
                        for _, p, mask, free in _z_outcomes(survivors)
                    ]
                else:
                    keep = ann[0] != ann[1]
                    self.accept_labels01[cid] = keep
                    self.accept_labelscd[cid] = keep
                    outs = _x_outcomes(survivors, cfg.delta)
                outcome_rows.append(outs)
        kmax = max(len(o) for o in outcome_rows)
        self.cum = np.full((n_classes, kmax), 2.0)
        self.mask = np.zeros((n_classes, kmax), dtype=np.uint32)
        self.paper_ok = np.zeros((n_classes, kmax), dtype=bool)
        for cid, outs in enumerate(outcome_rows):
            acc = 0.0
            for j, (p, mask, free) in enumerate(outs):
                acc += p
                self.cum[cid, j] = acc
                self.mask[cid, j] = mask
                self.paper_ok[cid, j] = free
            # guard against float round-off at the top of the CDF
            if outs:
                self.cum[cid, len(outs) - 1] = max(self.cum[cid, len(outs) - 1], 1.0)
        self.label_lut = np.full(1 << N_SLOTS, -1, dtype=np.int8)
        for label, pats in table.patterns.items():
            idx = _LABEL_TO_IDX[label]
            for p in pats:
                self.label_lut[slot_mask(p)] = idx


def run_trials(cfg: TrialConfig, table: DetectionTable | None = None) -> Tally:
    """Seeded Monte-Carlo realization of the protocol model.

    Trial t lives in chunk t // 65536; each chunk draws from its own
    counter-based Philox stream keyed by (seed, chunk index), so any parallel
    or sequential execution order produces the same tally.
    """
    tab = table or derive_detection_table()
    tables = _ClassTables(cfg, tab)
    etas = np.array([float(e) for e in cfg.etas])
    y0 = float(cfg.y0)
    powers = (1 << np.arange(N_SLOTS, dtype=np.uint32)).astype(np.uint32)
    announced_n = accepted_n = errors_n = 0
    case_acc = np.zeros(5, dtype=np.int64)
    case_err = np.zeros(5, dtype=np.int64)
    paper = cfg.mode == "paper"
    for chunk in range((cfg.trials + _CHUNK - 1) // _CHUNK):
        n = min(_CHUNK, cfg.trials - chunk * _CHUNK)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[cfg.seed, chunk])))
        u = gen.random((n, _WORDS))
        bits = (u[:, 0] * 16).astype(np.int32)
        surv_bits = (u[:, 1:5] < etas[None, :]).astype(np.int32)
        surv = (surv_bits[:, 0] << 3) | (surv_bits[:, 1] << 2) | (surv_bits[:, 2] << 1) | surv_bits[:, 3]
        cls = bits * 16 + surv
        # per-class inverse-CDF sampling of the photon click outcome
        idx = np.empty(n, dtype=np.int64)
        order = np.argsort(cls, kind="stable")
        sorted_cls = cls[order]
        bounds = np.searchsorted(sorted_cls, np.arange(257))
        for c in range(256):
            lo, hi = bounds[c], bounds[c + 1]
            if lo == hi:
                continue
            rows = order[lo:hi]
            idx[rows] = np.searchsorted(tables.cum[c], u[rows, 5], side="right")
        photon_mask = tables.mask[cls, idx]
        dark_mask = ((u[:, 6:] < y0) @ powers).astype(np.uint32)
        click = photon_mask | dark_mask
        label_idx = tables.label_lut[click]
        announced = label_idx >= 0
        if paper:
            announced &= tables.paper_ok[cls, idx]
        accepted = announced & np.where(
            label_idx <= 1, tables.accept_labels01[cls], tables.accept_labelscd[cls]
        )
        errors = accepted & tables.err_flag[cls]
        announced_n += int(announced.sum())
        accepted_n += int(accepted.sum())
        errors_n += int(errors.sum())
        kk = tables.case_k[cls]
        case_acc += np.bincount(kk[accepted], minlength=5)
        case_err += np.bincount(kk[errors], minlength=5)
    return Tally(
        cfg,
        cfg.trials,
        announced_n,
        accepted_n,
        errors_n,
        tuple(int(x) for x in case_acc),
        tuple(int(x) for x in case_err),
    )


@dataclass(frozen=True)
class EstimateReport:
    q1_hat: float
    q1_ci: tuple[float, float]
    e1_hat: float | None
    e1_ci: tuple[float, float] | None
    per_case_fraction: tuple[float, float, float, float, float]
    note: str = ""

    def e1_or_raise(self) -> float:
        if self.e1_hat is None:
            raise NoAcceptedEvents("no accepted events: e1 undefined")
        return self.e1_hat


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
