import pytest

from wqkd.amplitude import Amplitude
from wqkd.analyzer import INPUT_MODES, derive_detection_table, w_analyzer
from wqkd.fock import FockState, Mode, Monomial, monomial
from wqkd.keyrate import AnalyzerConstants
from wqkd.protocol import slot_mask


@pytest.fixture(scope="session")
def table():
    return derive_detection_table()


@pytest.fixture(scope="session")
def constants(table):
    return AnalyzerConstants.from_table(table)


def _reference_apply_mode_map(state, mm):
    """The propagation oracle: a dict walk in Amplitude arithmetic, one
    partial product per photon, which the integer kernel of
    ``FockState.apply_mode_map`` must equal."""
    out: dict[Monomial, Amplitude] = {}
    for mon, amp in state._terms.items():
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
    return FockState(out)


@pytest.fixture(scope="session")
def reference_apply_mode_map():
    return _reference_apply_mode_map


def _x_superposition_outcomes(survivor_xbits, delta, propagate=None):
    """The X outcome oracle: tensor each photon's (t0 +- t1)/sqrt2 into one
    2^k-term input state, propagate it, and evaluate every output at delta."""
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
    state = (propagate or w_analyzer().propagate)(state)
    return tuple(
        (mon, state.pattern_probability(mon, delta), slot_mask(mon), len(set(mon)) == len(mon))
        for mon, _ in state.terms()
    )


@pytest.fixture(scope="session")
def x_superposition_outcomes():
    return _x_superposition_outcomes
