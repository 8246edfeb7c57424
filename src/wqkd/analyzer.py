"""Optical networks for Bell- and W-state analysis and their click statistics.

The W analyzer is four time-bin interferometers feeding two final beam
splitters; inputs on spatial modes a, b, c, d leave on s, u, v, w across time
bins t0..t3.  Click patterns are observable slot sets: threshold detectors
report which (spatial, bin) slots fired, not how many photons fed a slot.

Distinguishability is judged on generic-phase support (a pattern counts as
reachable for a state if its symbolic amplitude is nonzero for some delta).
The three-Bell-state analyzer is the exception: its advertised rates hold at
the calibrated operating point, so Bell rates collapse the phase to delta = 0
exactly before comparing supports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .amplitude import Amplitude
from .fock import FockState, Mode, ModeMap, Monomial, monomial, multiplicity_factor
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
        return state.apply_mode_map(self.composed_map())

    def composed_map(self) -> ModeMap:
        return self._composed

    @functools.cached_property
    def _composed(self) -> ModeMap:
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


def click_distribution(state: FockState, delta: float | None = None) -> dict[ClickSet, Fraction | float]:
    """Probability of each clicked-slot set (monomials grouped by support)."""
    out: dict[ClickSet, Fraction | float] = {}
    for mon, _ in state.terms():
        key = frozenset(mon)
        p = state.pattern_probability(mon, delta)
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
    return w_analyzer().propagate(encode_fock(w_state(label), INPUT_MODES))


def derive_detection_table(cache: bool = True) -> DetectionTable:
    """Propagate all 16 catalog states and keep patterns unique to one state.

    Coincidences are monomials with exactly one photon in each of s, u, v, w;
    a pattern is unique when its symbolic amplitude is nonzero for exactly one
    of the 16 inputs.  The result is memoized; pass cache=False to force a
    fresh derivation, which then becomes the memo.
    """
    if not cache:
        _default_table.cache_clear()
    return _default_table()


@functools.cache
def _default_table() -> DetectionTable:
    return _derive_table()


def _derive_table() -> DetectionTable:
    outputs = {label: propagate_w_state(label) for label in range(16)}
    support: dict[int, set[Monomial]] = {}
    for label, state in outputs.items():
        support[label] = {mon for mon, _ in state.terms() if _is_coincidence(mon)}
    counts: dict[Monomial, int] = {}
    for pats in support.values():
        for mon in pats:
            counts[mon] = counts.get(mon, 0) + 1
    patterns: dict[int, tuple[Monomial, ...]] = {}
    per_pattern: dict[int, tuple[Fraction, ...]] = {}
    probs: dict[int, Fraction] = {}
    for label in range(16):
        unique = sorted(m for m in support[label] if counts[m] == 1)
        if not unique:
            continue
        patterns[label] = tuple(unique)
        per_pattern[label] = tuple(outputs[label].pattern_probability(m) for m in unique)
        probs[label] = sum(per_pattern[label], Fraction(0))
    overall = sum(probs.values(), Fraction(0)) / 16
    return DetectionTable(patterns, per_pattern, probs, overall)


def bell_success_rates(delta_zero: bool = True) -> dict[str, Fraction]:
    """Unique-slot-set success probability per Bell state on the three-state network.

    With delta pinned to zero (stabilized interferometer) the rates come out
    1, 1/2, 1/2, 0 for psi+, psi-, phi+, phi-.  Without the collapse the phi+
    and phi- supports merge and phi+ drops to zero as well.
    """
    net = bell_analyzer()
    dists: dict[str, dict[ClickSet, Fraction]] = {}
    for kind in ("psi+", "psi-", "phi+", "phi-"):
        state = net.propagate(encode_fock(bell_state(kind), ("a", "b")))
        if delta_zero:
            state = state.collapse_phase()
        dists[kind] = click_distribution(state) if delta_zero else _generic_distribution(state)
    counts: dict[ClickSet, int] = {}
    for dist in dists.values():
        for key in dist:
            counts[key] = counts.get(key, 0) + 1
    return {
        kind: sum((p for key, p in dist.items() if counts[key] == 1), Fraction(0))
        for kind, dist in dists.items()
    }


def _generic_distribution(state: FockState) -> dict[ClickSet, Fraction]:
    """Slot-set support at generic phase; per-set mass averaged over delta.

    The delta average of |sum_k c_k phi^k|^2 is sum_k |c_k|^2, which is exact
    and nonzero precisely on the symbolic support.
    """
    out: dict[ClickSet, Fraction] = {}
    for mon, amp in state.terms():
        mass = Fraction(0)
        for k in amp.phase_powers():
            piece = Amplitude({k: amp.coefficient(k)})
            mass += piece.abs2()
        key = frozenset(mon)
        out[key] = out.get(key, Fraction(0)) + mass * multiplicity_factor(mon)
    return out


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
