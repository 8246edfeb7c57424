import numpy as np
import pytest

from wqkd import protocol
from wqkd.amplitude import Amplitude
from wqkd.analyzer import INPUT_MODES, derive_detection_table, w_analyzer
from wqkd.fock import FockState, Mode, Monomial, monomial
from wqkd.keyrate import AnalyzerConstants
from wqkd.protocol import _CHUNK, N_SLOTS, Tally, slot_mask

pytest_plugins = ["pytester"]


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


def _reference_run_trials(cfg):
    """The sampler oracle: the chunk loop that expands each chunk's entry
    counts into one element per trial and ORs the darks into their click
    masks, which ``protocol.run_trials`` must equal tally for tally."""
    rows = protocol._live_rows(cfg.delta if cfg.basis == "x" else None)
    ent = protocol._entries(cfg, rows)
    pvals = np.append(ent.prob, max(0.0, 1.0 - ent.prob.sum()))
    index = np.arange(ent.prob.size, dtype=np.intp)
    y0 = float(cfg.y0)
    announced_n = 0
    case_acc = np.zeros(5, dtype=np.int64)
    case_err = np.zeros(5, dtype=np.int64)
    for chunk in range((cfg.trials + _CHUNK - 1) // _CHUNK):
        n = min(_CHUNK, cfg.trials - chunk * _CHUNK)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[cfg.seed, chunk])))
        # trials in the dead bucket (the last count) are never announced
        entry = np.repeat(index, gen.multinomial(n, pvals)[:-1])
        click = ent.mask[entry]
        darks = gen.binomial(N_SLOTS * n, y0)
        if darks:
            pos = gen.choice(N_SLOTS * n, darks, replace=False, shuffle=False)
            pos = pos[pos < N_SLOTS * entry.size]  # live trials come first
            np.bitwise_or.at(click, pos // N_SLOTS, np.left_shift(1, pos % N_SLOTS).astype(np.uint32))
        hit = rows.label_bit[click]
        announced = np.flatnonzero(hit)
        announced_n += announced.size
        announced_entry = entry[announced]
        accepted = announced_entry[(hit[announced] & ent.accepts[announced_entry]) != 0]
        case_acc += np.bincount(ent.photons[accepted], minlength=5)
        case_err += np.bincount(ent.photons[accepted[ent.error[accepted]]], minlength=5)
    return Tally(
        cfg,
        cfg.trials,
        announced_n,
        int(case_acc.sum()),
        int(case_err.sum()),
        tuple(int(x) for x in case_acc),
        tuple(int(x) for x in case_err),
    )


@pytest.fixture(scope="session")
def reference_run_trials():
    return _reference_run_trials
