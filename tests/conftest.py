import functools
from dataclasses import dataclass

import numpy as np
import pytest

from wqkd import analyzer, protocol
from wqkd.amplitude import Amplitude, accumulate
from wqkd.analyzer import DISTINGUISHABLE_LABELS, INPUT_MODES, N_SLOTS, derive_detection_table, slot_mask, w_analyzer
from wqkd.fock import FockState, Mode, ModeMap, Monomial, monomial, multiplicity_factor
from wqkd.keyrate import AnalyzerConstants
from wqkd.protocol import _CHUNK, Tally
from wqkd.qubits import encode_fock, w_state

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


@pytest.fixture(scope="session")
def w_state_chains():
    """Per W-state label, the kernel's input and its image after each of the
    W analyzer's six stages, and its image under the composed map; computed
    once for every test that checks the chain."""
    net = w_analyzer()
    chains = []
    for label in range(16):
        staged = [encode_fock(w_state(label), INPUT_MODES)]
        for stage in net.stages:
            staged.append(staged[-1].apply_mode_map(stage))
        chains.append((staged, net.propagate(staged[0])))
    return chains


@functools.cache  # one kernel batch for every listing
def _full_product_rows():
    """The kernel rows of every survivor configuration, dead outputs
    included: one ``image_rows`` call over the 81 product monomials that
    ``Relay.product_rows`` propagates, on the same slot list."""
    configs = {analyzer._product_monomial(c): c for c in analyzer._CONFIGS}
    state = FockState(dict.fromkeys(configs, Amplitude.one()))
    slots, rows = state.image_rows(w_analyzer().composed_map)
    assert slots == analyzer.relay().product_rows[0]
    return {configs[mon]: block for mon, block in rows.items()}


def _outcomes(survivors, delta):
    """Monomial, probability, slot mask and bunching flag of every output of
    one configuration, dead outputs included, from a one-configuration pass
    of the package over the unfiltered product rows: Z basis for
    ``delta=None``, X at delta otherwise."""
    slots = analyzer.relay().product_rows[0]
    ((_, (_, codes, prob, mask, free)),) = analyzer._passes(_full_product_rows(), [survivors], delta)
    modes = np.fromiter(slots, object, len(slots))
    mons = zip(*(modes[col] for col in codes.T)) if codes.shape[1] else [()] * len(codes)
    return tuple(zip(mons, prob.tolist(), mask.tolist(), free.tolist()))


def _survivor_state(survivors, basis):
    """The survivors' propagated state in Amplitude arithmetic, one
    configuration at a time: one Amplitude per output, the oracle of the rows
    ``_outcomes`` evaluates.

    A photon of party p with bit b enters as sum_t w_t a†[p, t]: w = {b: 1} in
    the Z basis, {0: 1/sqrt2, 1: +-1/sqrt2} in X.  The analyzer is linear, so
    its image is the same weighted sum of the composed map's image of p,
    shifted by t bins, and the survivors' output is their one bin-0 monomial
    propagated through these images.
    """
    root = Amplitude.gauss(1, 0, 1)
    composed = w_analyzer().composed_map
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


@functools.cache  # at most 81 configurations, shared by the tests that read them
def _reference_z_outcomes(survivors):
    """The Z outcome oracle in Amplitude arithmetic: one Amplitude per output,
    its exact ``abs2() * multiplicity``, which the float of
    ``_outcomes(survivors, None)`` must equal exactly."""
    return tuple(
        (mon, amp.abs2() * multiplicity_factor(mon), slot_mask(mon), len(set(mon)) == len(mon))
        for mon, amp in _survivor_state(survivors, "z").terms()
    )


@pytest.fixture(scope="session")
def reference_z_outcomes():
    return _reference_z_outcomes


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


@functools.cache  # the states do not depend on the delay
def _x_survivor_state(survivors):
    return _survivor_state(survivors, "x")


def _reference_x_outcomes(survivors, delta):
    """The X outcome oracle in Amplitude arithmetic: one Amplitude per output,
    evaluated by ``abs2(delta)``, which ``_outcomes`` must equal bit for
    bit."""
    state = _x_survivor_state(survivors)
    return tuple(
        (mon, amp.abs2(delta) * multiplicity_factor(mon), slot_mask(mon), len(set(mon)) == len(mon))
        for mon, amp in state.terms()
    )


@pytest.fixture(scope="session")
def reference_x_outcomes():
    return _reference_x_outcomes


@functools.cache
def _live_masks():
    """The click mask -> label bit table, and the set of live masks: every
    submask of every detection pattern, the empty one included."""
    label_bit = np.zeros(1 << N_SLOTS, dtype=np.uint8)
    live = set()
    for label, pats in derive_detection_table().patterns.items():
        for pattern in pats:
            pmask = slot_mask(pattern)
            label_bit[pmask] = 1 << analyzer._LABEL_TO_IDX[label]
            sub = pmask
            while True:
                live.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & pmask
    return label_bit, live


def _reference_live_table(outcomes_of, delta):
    """The live-table oracle: each survivor configuration's listing
    ``outcomes_of(survivors)`` with its dead outcomes dropped one by one, in
    the package's configuration order, which ``analyzer._live_outcomes(delta)``
    must equal in span, dtype, type and value.  Every probability is a float;
    an exact Z one must equal its float exactly."""
    live = _live_masks()[1]
    span, outcomes = {}, []
    for survivors in analyzer._CONFIGS:
        own = [(p, m, f) for _, p, m, f in outcomes_of(survivors) if m in live]
        span[survivors] = slice(len(outcomes), len(outcomes) + len(own))
        outcomes += own
    prob, mask, free = (np.array(column) for column in zip(*outcomes))
    assert prob.astype(float).tolist() == prob.tolist()  # a float equals a Fraction only at its exact value
    return span, prob.astype(float), mask, free


@pytest.fixture(scope="session")
def reference_live_table():
    return _reference_live_table


@functools.cache  # a table never changes, so each layout is built once
def _class_rows(basis, delta):
    """The live table of a basis and delay laid out one input class
    (bits * 16 + survival subset) at a time: each class's row numbers, then
    the class, float probability, slot mask and bunching flag of each row."""
    span, prob, mask, free = analyzer.relay().z_outcomes if basis == "z" else analyzer.relay().x_outcomes(delta)
    rows = [(cid, i) for cid, c in enumerate(protocol._SURVIVORS) for i in range(span[c].start, span[c].stop)]
    cls, take = np.array(rows).T
    return cls, prob[take], mask[take], free[take]


@dataclass(frozen=True)
class _ReferenceEntries:
    """The entries of one configuration with a non-zero probability, each
    entry's photon slot mask, accepted label bits, error flag, surviving
    photons, tally cell per label bits hit (``cell[i, h]``) and no-dark cell."""

    prob: np.ndarray
    mask: np.ndarray
    accepts: np.ndarray
    error: np.ndarray
    photons: np.ndarray
    cell: np.ndarray
    no_dark: np.ndarray


def _reference_entries(cfg):
    """The entry oracle: the sampler's entries merged afresh on every call,
    from the live table laid out per input class, weighted, with every entry
    of probability 0 dropped, and their tally cells.  The sampler's cached
    merge (``protocol._entry_merge``), weighted, must equal it on its
    non-zero entries."""
    label_bit = _live_masks()[0]
    subsets = np.arange(16)
    weight = np.full(16, 1 / 16)
    for party, eta in enumerate(cfg.etas):
        weight *= np.where(protocol._party_bit(subsets, party), float(eta), 1 - float(eta))
    accepts = np.zeros(16, dtype=np.int64)
    error = np.zeros(16, dtype=np.int64)
    for bits in range(16):
        labels, error[bits] = protocol._sift(bits, cfg.basis, cfg.announcers)
        accepts[bits] = sum(1 << analyzer._LABEL_TO_IDX[label] for label in labels)
    cls, prob, mask, free = _class_rows(cfg.basis, cfg.delta)
    bits, surv = np.divmod(cls, 16)
    prob = weight[surv] * prob
    if cfg.mode == "paper":
        prob[~free] = 0.0  # bunched outcomes join the dead bucket
    kind = (mask.astype(np.int64) << 8) | (accepts[bits] << 4) | (error[bits] << 3) | protocol._PHOTONS[surv]
    keep = prob > 0
    kind, inverse = np.unique(kind[keep], return_inverse=True)
    prob = np.bincount(inverse, weights=prob[keep])
    mask, accepts = (kind >> 8).astype(np.uint32), (kind >> 4) & 15
    error, photons = ((kind >> 3) & 1).astype(bool), kind & 7
    hits = np.arange(1 << len(DISTINGUISHABLE_LABELS))
    accepted = (accepts[:, None] & hits) != 0
    cell = np.where(accepted, (2 + photons + 5 * error)[:, None], hits != 0).ravel()
    no_dark = cell[np.arange(prob.size) * hits.size + label_bit[mask]]
    return _ReferenceEntries(prob, mask, accepts, error, photons, cell.reshape(-1, hits.size), no_dark)


@pytest.fixture(scope="session")
def reference_entries():
    return _reference_entries


def _reference_run_trials(cfg):
    """The sampler oracle: the chunk loop that draws over the entry oracle's
    non-zero entries, expands each chunk's entry counts into one element per
    trial and ORs the darks into their click masks, which
    ``protocol.run_trials`` must equal tally for tally."""
    label_bit = _live_masks()[0]
    ent = _reference_entries(cfg)
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
        hit = label_bit[click]
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
