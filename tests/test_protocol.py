import dataclasses
import functools
import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqkd import protocol
from wqkd.amplitude import Amplitude
from wqkd.analyzer import INPUT_MODES, w_analyzer
from wqkd.fock import FockState, Mode, multiplicity_factor
from wqkd.keyrate import (
    NoiseParams,
    Transmittances,
    case_breakdown,
    e1_identical,
    left_sum,
    q1_identical,
)
from wqkd.protocol import (
    Tally,
    TrialConfig,
    estimate,
    exact_enumerate,
    run_trials,
    survivor_coefficients,
    wilson_interval,
)


@pytest.mark.parametrize(
    "bits, announcers, basis, labels, error",
    [
        ("0001", (0, 1), "z", (0, 1), False),  # "00" announced; holder bits 0, 1 differ
        ("0000", (0, 1), "z", (0, 1), True),  # holder bits equal: their flipped key bits disagree
        ("1110", (0, 1), "z", (12, 13), False),  # "11" announced
        ("0101", (0, 1), "z", (), False),  # "01": no label accepts
        ("1000", (0, 1), "z", (), True),
        ("0011", (2, 3), "z", (12, 13), True),  # announcers c, d hold 1, 1; key holders a, b both 0
        ("1100", (2, 3), "z", (0, 1), True),
        ("0110", (0, 3), "z", (0, 1), True),
        ("0100", (0, 1), "x", (0, 1, 12, 13), True),  # different x bits accept either group
        ("1001", (0, 1), "x", (0, 1, 12, 13), False),
        ("1100", (0, 1), "x", (), True),  # equal x bits: none
        ("0010", (1, 2), "x", (0, 1, 12, 13), True),
    ],
    ids=[
        "z-00-kept", "z-00-error", "z-11-kept", "z-01-none", "z-10-none", "z-roles-cd-11",
        "z-roles-cd-00", "z-roles-ad-00", "x-01", "x-10", "x-11-none", "x-roles-bc",
    ],
)
def test_sift(bits, announcers, basis, labels, error):
    cfg = TrialConfig(basis=basis, announcers=announcers)
    assert protocol._sift(int(bits, 2), cfg) == (labels, error)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(mode="loose")
    with pytest.raises(ValueError):
        TrialConfig(basis="y")
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(announcers=(1, 1))
    for etas in ((0.5, 0.5, 0.5, 1.5), (-0.1, 0.5, 0.5, 0.5), (Fraction(3, 2),) * 4, (math.nan,) * 4):
        with pytest.raises(ValueError, match="transmittances"):
            TrialConfig(etas=etas)
    for y0 in (-0.1, 1.0, Fraction(-1, 10**6), math.nan):
        with pytest.raises(ValueError, match="y0"):
            TrialConfig(y0=y0)
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="delta"):
            TrialConfig(basis="x", delta=delta)
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(seed=-1)
    for field, value in (("trials", 1.5), ("trials", 1000.0), ("trials", True), ("seed", 1.5), ("seed", False)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrialConfig(**{field: value})
    # boundary values and exact fractions stay valid
    TrialConfig(etas=(Fraction(0), Fraction(1), 0.0, 1.0), y0=Fraction(0), seed=0)
    TrialConfig(etas=(Fraction(1, 3),) * 4, y0=Fraction(1, 3))


def test_enumerator_dark_only_case():
    y0 = Fraction(1, 37)
    cfg = TrialConfig(etas=(Fraction(0),) * 4, y0=y0, mode="paper")
    res = exact_enumerate(cfg)
    assert res.q1 == 8 * y0**4 * (1 - y0) ** 12
    assert res.e1 == Fraction(1, 2)
    assert res.gain_cases[1:] == (0, 0, 0, 0)


def test_enumerator_ideal_photons():
    cfg = TrialConfig(etas=(Fraction(1),) * 4, y0=Fraction(0), mode="physical")
    res = exact_enumerate(cfg)
    assert res.q1 == Fraction(1, 256)
    assert res.e1 == 0
    assert res.gain_cases[:4] == (0, 0, 0, 0)


def test_survivor_coefficients_match_model_exactly(constants):
    """Every multilinear coefficient of the closed-form five-case model is
    recovered exactly by the independent enumerator, including the (15, 7)
    case-4 pair that breaks the error = gain/2 pattern."""
    enum = survivor_coefficients("paper")
    y0 = Fraction(1, 3)
    for surv in range(16):
        parties = frozenset(p for p in range(4) if (surv >> (3 - p)) & 1)
        etas = tuple(Fraction(1) if p in parties else Fraction(0) for p in range(4))
        cb = case_breakdown(Transmittances(*etas), NoiseParams(y0), constants)
        k = len(parties)
        base = y0 ** (4 - k) * (1 - y0) ** 12
        assert enum[parties] == (cb.gain[k] / base, cb.error[k] / base), parties
    # spot-check the pinned values
    assert enum[frozenset({0, 2, 3})] == (Fraction(15, 256), Fraction(7, 256))
    assert enum[frozenset({0, 1, 2})] == (Fraction(17, 128), Fraction(17, 256))
    assert enum[frozenset()] == (Fraction(8), Fraction(4))


def test_enumerator_equals_closed_forms_exactly(constants):
    eta = Fraction(29, 2000)
    y0 = Fraction(602, 10**8)
    res = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="paper"))
    assert res.q1 == q1_identical(eta, NoiseParams(y0), constants)
    assert res.e1 == e1_identical(eta, NoiseParams(y0), constants)


def test_enumerator_asymmetric_channels(constants):
    etas = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))
    y0 = Fraction(1, 10**4)
    res = exact_enumerate(TrialConfig(etas=etas, y0=y0, mode="paper"))
    cb = case_breakdown(Transmittances(*etas), NoiseParams(y0), constants)
    assert tuple(res.gain_cases) == tuple(cb.gain)
    assert tuple(res.error_cases) == tuple(cb.error)


def test_physical_mode_dominates_paper_mode():
    for eta, y0 in ((Fraction(1, 2), Fraction(1, 1000)), (Fraction(29, 2000), Fraction(602, 10**8))):
        paper = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="paper"))
        phys = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="physical"))
        assert phys.q1 >= paper.q1
        for g_p, g_f in zip(paper.gain_cases, phys.gain_cases):
            assert g_f >= g_p


def test_physical_gap_vanishes_with_dark_counts():
    eta = Fraction(29, 2000)
    gaps = []
    for y0 in (Fraction(1, 10**4), Fraction(1, 10**5), Fraction(1, 10**6)):
        paper = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="paper"))
        phys = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="physical"))
        gaps.append((phys.q1 - paper.q1) / paper.q1)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_enumerator_total_mass():
    # the click distribution of every survivor configuration is normalized,
    # so weights alone must sum to one over inputs and survival subsets
    from wqkd.protocol import _party_bit, _z_outcomes

    eta = Fraction(1, 3)
    total = Fraction(0)
    for bits in range(16):
        for surv in range(16):
            weight = Fraction(1, 16)
            survivors = []
            for party in range(4):
                if (surv >> (3 - party)) & 1:
                    weight *= eta
                    survivors.append((party, _party_bit(bits, party)))
                else:
                    weight *= 1 - eta
            mass = sum((p for _, p, _, _ in _z_outcomes(tuple(survivors))), Fraction(0))
            assert mass == 1
            total += weight
    assert total == 1


def test_announcer_roles_are_symmetric_for_equal_channels():
    eta, y0 = Fraction(2, 5), Fraction(1, 10**4)
    base = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0, mode="paper"))
    swapped = exact_enumerate(
        TrialConfig(etas=(eta,) * 4, y0=y0, mode="paper", announcers=(2, 3))
    )
    assert swapped.q1 == base.q1
    assert swapped.e1 == base.e1


def test_mc_agrees_with_enumerator():
    cfg = TrialConfig(etas=(0.5,) * 4, y0=1e-4, mode="physical", trials=400_000, seed=11)
    tally = run_trials(cfg)
    exact = exact_enumerate(
        TrialConfig(etas=(Fraction(1, 2),) * 4, y0=Fraction(1, 10**4), mode="physical")
    )
    q1 = float(exact.q1)
    sigma = math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert abs(tally.q1_hat - q1) <= 3 * sigma
    e1 = float(exact.e1)
    if tally.accepted:
        sig_e = math.sqrt(e1 * (1 - e1) / tally.accepted)
        assert abs(tally.e1_hat - e1) <= 3 * sig_e


def test_mc_ideal_point():
    cfg = TrialConfig(etas=(1.0,) * 4, y0=0.0, mode="physical", trials=300_000, seed=5)
    tally = run_trials(cfg)
    q1 = 1 / 256
    sigma = math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert abs(tally.q1_hat - q1) <= 3 * sigma
    assert tally.errors == 0
    assert tally.per_case_accepted[4] == tally.accepted


def test_mc_deterministic_across_chunk_boundaries():
    # 70k trials span two fixed-size chunks; reruns must agree bit for bit
    cfg = TrialConfig(etas=(0.6,) * 4, y0=1e-4, trials=70_000, seed=123)
    t1 = run_trials(cfg)
    t2 = run_trials(cfg)
    assert t1 == t2
    other_seed = run_trials(TrialConfig(etas=(0.6,) * 4, y0=1e-4, trials=70_000, seed=124))
    assert other_seed != t1


def test_mc_multi_seed_agreement():
    # scaled version of the 3-sigma coverage contract across seeds
    exact = exact_enumerate(
        TrialConfig(etas=(Fraction(2, 5),) * 4, y0=Fraction(1, 10**4), mode="physical")
    )
    q1 = float(exact.q1)
    trials = 150_000
    sigma = math.sqrt(q1 * (1 - q1) / trials)
    inside = 0
    for seed in range(20):
        tally = run_trials(
            TrialConfig(etas=(0.4,) * 4, y0=1e-4, mode="physical", trials=trials, seed=seed)
        )
        if abs(tally.q1_hat - q1) <= 3 * sigma:
            inside += 1
    assert inside >= 19


def test_mc_single_trial():
    tally = run_trials(TrialConfig(etas=(0.5,) * 4, trials=1, seed=9))
    assert tally.trials == 1


def test_mc_paper_mode_excludes_bunched_events():
    cfg_paper = TrialConfig(etas=(0.9,) * 4, y0=5e-3, mode="paper", trials=150_000, seed=21)
    cfg_phys = TrialConfig(etas=(0.9,) * 4, y0=5e-3, mode="physical", trials=150_000, seed=21)
    t_paper = run_trials(cfg_paper)
    t_phys = run_trials(cfg_phys)
    assert t_paper.accepted <= t_phys.accepted
    exact = exact_enumerate(
        TrialConfig(etas=(Fraction(9, 10),) * 4, y0=Fraction(5, 1000), mode="paper")
    )
    q1 = float(exact.q1)
    sigma = math.sqrt(q1 * (1 - q1) / cfg_paper.trials)
    assert abs(t_paper.q1_hat - q1) <= 3 * sigma


@pytest.mark.parametrize("y0", [0.0, 6.02e-6, 1e-2])
@pytest.mark.parametrize("etas", [(0.0145,) * 4, (0.1, 0.2, 0.3, 0.4)])
@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_sampler_entries_equal_exact_enumeration(table, mode, etas, y0):
    # accepted gain of the sampler's own entry table: an entry lands on an
    # accepted pattern P containing its photon mask when darks fill P's other
    # slots and none of the 12 slots outside P fires
    cfg = TrialConfig(etas=etas, y0=y0, mode=mode)
    ent = protocol._entries(cfg, protocol._live_rows(None))
    photons_in = np.array([int(m).bit_count() for m in ent.mask])
    gain = err = 0.0
    for label, pats in table.patterns.items():
        for pat in pats:
            pmask = protocol.slot_mask(pat)
            inside = ((ent.mask | pmask) == pmask) & ((ent.accepts >> protocol._LABEL_TO_IDX[label]) & 1 == 1)
            w = ent.prob[inside] * y0 ** (4 - photons_in[inside]) * (1 - y0) ** 12
            gain += w.sum()
            err += w[ent.error[inside]].sum()
    exact = exact_enumerate(
        TrialConfig(etas=tuple(Fraction(e) for e in etas), y0=Fraction(y0), mode=mode)
    )
    assert gain == pytest.approx(float(exact.q1), rel=1e-12, abs=0)
    assert err == pytest.approx(float(sum(exact.error_cases)), rel=1e-12, abs=0)


def test_mc_dense_dark_counts():
    cfg = TrialConfig(etas=(0.5,) * 4, y0=1e-2, mode="physical", trials=300_000, seed=31)
    tally = run_trials(cfg)
    exact = exact_enumerate(
        TrialConfig(etas=(Fraction(1, 2),) * 4, y0=Fraction(1, 100), mode="physical")
    )
    q1, e1 = float(exact.q1), float(exact.e1)
    assert abs(tally.q1_hat - q1) <= 3 * math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert abs(tally.e1_hat - e1) <= 3 * math.sqrt(e1 * (1 - e1) / tally.accepted)


@pytest.mark.parametrize("eta, y0", [(0, 0.2), (1, 1e-2)])
def test_mc_boundary_transmittances(eta, y0):
    # at eta 0 the live vacuum entries carry all the mass, so round-off must not
    # push the dead bucket below zero; at eta 1 only four-photon entries count
    cfg = TrialConfig(etas=(float(eta),) * 4, y0=y0, mode="physical", trials=100_000, seed=41)
    tally = run_trials(cfg)
    exact = exact_enumerate(TrialConfig(etas=(Fraction(eta),) * 4, y0=Fraction(y0), mode="physical"))
    q1 = float(exact.q1)
    assert abs(tally.q1_hat - q1) <= 3 * math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert sum(tally.per_case_accepted) == tally.accepted <= tally.announced
    assert tally.per_case_accepted[4 * eta] == tally.accepted  # no photon or all four survive


def test_sampler_equals_per_trial_reference_on_grid(reference_run_trials):
    # 65537 trials end in a one-trial chunk; y0 0.2 hits most live trials
    # with several darks; delta 0 shares the X rows with the other X tests
    grid = product(
        "zx", ("paper", "physical"), (0, 6.02e-6, 1e-2, 0.2), (0, 0.0145, 0.5, 1), (1, 65537), ((0, 1), (2, 3))
    )
    for seed, (basis, mode, y0, eta, trials, announcers) in enumerate(grid):
        cfg = TrialConfig((eta,) * 4, y0, mode, basis, announcers, trials, seed)
        assert run_trials(cfg) == reference_run_trials(cfg), cfg


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    etas=st.tuples(*[st.floats(0, 1)] * 4),
    y0=st.floats(0, 0.3),
    mode=st.sampled_from(("paper", "physical")),
    basis=st.sampled_from("zx"),
    announcers=st.sampled_from(list(permutations(range(4), 2))),
    trials=st.integers(1, 200_000),
    seed=st.integers(0, 2**32),
)
def test_sampler_equals_per_trial_reference(
    reference_run_trials, etas, y0, mode, basis, announcers, trials, seed
):
    cfg = TrialConfig(etas, y0, mode, basis, announcers, trials, seed)
    assert run_trials(cfg) == reference_run_trials(cfg)


@pytest.fixture
def cleared_rows():
    protocol._live_rows.cache_clear()
    yield
    protocol._live_rows.cache_clear()  # no test leaves its rows to the next


def test_x_caches_hold_one_delay(monkeypatch, cleared_rows):
    monkeypatch.setattr(protocol, "_outcomes", lambda survivors, delta: ((None, 1.0, 0, True),))
    z_rows = protocol._live_rows(None)
    for delta in (0.1, 0.2, 0.3):
        protocol._live_rows(delta)  # a sweep: the oldest rows go first
    assert protocol._live_rows.cache_info()[1:] == (4, 2, 2)  # misses, maxsize, currsize
    protocol._live_rows(0.3)
    assert protocol._live_rows.cache_info().hits == 1
    assert protocol._live_rows(None) is not z_rows  # evicted by the sweep, rebuilt
    assert protocol._live_rows.cache_info().misses == 5


def test_z_and_x_rows_never_share_a_key(monkeypatch):
    # rows are rebuilt on every miss; the real delta-0 X outcomes are computed once
    # here, and the sweep's other delay only has to push the Z rows out
    real = functools.cache(protocol._outcomes)
    monkeypatch.setattr(protocol, "_outcomes", lambda s, delta: real(s, delta) if delta == 0 else ((None, 1.0, 0, True),))
    z = TrialConfig(etas=(0.5,) * 4, y0=1e-3, trials=200_000, seed=17)
    x = TrialConfig(etas=(0.8,) * 4, y0=1e-4, basis="x", delta=0.0, trials=200_000, seed=18)
    assert z.delta == x.delta == 0.0
    protocol._live_rows.cache_clear()
    x_cold = run_trials(x)
    protocol._live_rows.cache_clear()
    z_tally = run_trials(z)
    assert run_trials(x) == x_cold
    assert protocol._live_rows.cache_info()[:2] == (0, 2)  # hits, misses: no X run got the Z rows
    run_trials(dataclasses.replace(x, delta=0.3))
    assert run_trials(z) == z_tally
    # and back: the cache ends on real Z and delta-0 rows, as a run would leave it
    assert run_trials(x) == x_cold
    assert protocol._live_rows.cache_info().currsize == 2


def test_x_basis_smoke():
    cfg = TrialConfig(etas=(1.0,) * 4, y0=0.0, basis="x", trials=30_000, seed=3)
    tally = run_trials(cfg)
    assert tally.announced > 0
    rep = estimate(tally)
    assert "x basis" in rep.note
    again = run_trials(cfg)
    assert again == tally


def test_x_outcomes_equal_superposition_reference(x_superposition_outcomes):
    # every survivor configuration of up to three photons, plus one of four
    configs = sorted({c for c in protocol._SURVIVORS if len(c) <= 3})
    configs.append(((0, 1), (1, 0), (2, 0), (3, 1)))
    delta = math.pi / 8
    for c in configs:
        assert protocol._outcomes(c, delta) == x_superposition_outcomes(c, delta), c


def test_z_outcomes_equal_direct_propagation():
    # the reference: each survivor's own bin propagated as one monomial
    configs = sorted(set(protocol._SURVIVORS))
    assert len(configs) == 81
    for c in configs:
        state = w_analyzer().propagate(FockState.from_monomial(Mode(INPUT_MODES[p], z) for p, z in c))
        assert protocol._survivor_state(c, "z") == state, c
        reference = tuple(
            (mon, state.pattern_probability(mon), protocol.slot_mask(mon), len(set(mon)) == len(mon))
            for mon, _ in state.terms()
        )
        outcomes = protocol._z_outcomes(c)
        assert outcomes == reference, c
        assert all(type(p) is Fraction for _, p, _, _ in outcomes), c


def _at_quarter_turns(amp, turns):
    """The amplitude at phi = i**turns, exactly: sum_k c_k * i**(k * turns)."""
    total = Amplitude.zero()
    for k in amp.phase_powers():
        p, q, r, s, h = amp.coefficient(k)
        for _ in range(k * turns % 4):
            p, q, r, s = -q, p, -s, r  # times i
        total = total + Amplitude({0: (p, q, r, s, h)})
    return total


@functools.cache
def _exact_x_probabilities(survivors, turns):
    """Exact (monomial, probability) of each X output at delta = turns * pi/2."""
    probs = [
        (mon, _at_quarter_turns(amp, turns).abs2() * multiplicity_factor(mon))
        for mon, amp in protocol._survivor_state(survivors, "x").terms()
    ]
    assert all(type(p) is Fraction for _, p in probs), survivors
    assert left_sum(p for _, p in probs) == 1, survivors
    return probs


@pytest.mark.parametrize("turns", [0, 1], ids=["phi-1", "phi-i"])
def test_exact_x_probabilities_sum_to_one(turns):
    # at delta = 0 and pi/2 every X outcome probability is rational
    for c in set(protocol._SURVIVORS):
        _exact_x_probabilities(c, turns)


def _exact_x(cfg, table):
    """Exact X-basis Q1 and e1 at delta = 0 or pi/2.

    The enumerator's walk (``_walk_enumerate``) in the X basis, written out
    here: the announcers' x bits differ, and the trial errs when the key
    holders' x bits are equal.  An outcome counts for a detection pattern
    when its slots lie inside the pattern (and, in paper accounting, no two
    photons share a slot); dark counts fill the pattern's other slots.
    """
    turns = {0: 0, math.pi / 2: 1}[cfg.delta]
    y0 = cfg.y0
    patterns = [protocol.slot_mask(p) for pats in table.patterns.values() for p in pats]
    ra, rb = cfg.announcers
    ha, hb = cfg.key_holders
    gain = err = Fraction(0)
    for bits in range(16):
        x = [(bits >> (3 - party)) & 1 for party in range(4)]
        if x[ra] == x[rb]:
            continue
        for surv in range(16):
            weight = Fraction(1, 16)
            survivors = []
            for party, eta in enumerate(cfg.etas):
                if (surv >> (3 - party)) & 1:
                    weight *= eta
                    survivors.append((party, x[party]))
                else:
                    weight *= 1 - eta
            click = Fraction(0)
            for mon, p in _exact_x_probabilities(tuple(survivors), turns):
                if cfg.mode == "paper" and len(set(mon)) != len(mon):
                    continue
                mask = protocol.slot_mask(mon)
                missing = 4 - bin(mask).count("1")
                click += p * y0**missing * sum(1 for pattern in patterns if not mask & ~pattern)
            contrib = weight * click * (1 - y0) ** 12
            gain += contrib
            if x[ha] == x[hb]:
                err += contrib
    return gain, err / gain


_HALF = (Fraction(1, 2),) * 4
_UNEVEN = (Fraction(9, 10), Fraction(4, 5), Fraction(7, 10), Fraction(3, 5))


@pytest.mark.parametrize(
    "etas, mode, announcers, y0, delta, seed, pinned",
    [
        (_HALF, "paper", (0, 1), 0, 0.0, 11, (Fraction(3, 16384), Fraction(2, 3))),
        (_UNEVEN, "physical", (1, 3), 0, 0.0, 12, (Fraction(567, 640000), Fraction(2, 3))),
        (_HALF, "paper", (0, 1), 0, math.pi / 2, 21, (Fraction(3, 16384), Fraction(2, 3))),
        (_UNEVEN, "physical", (1, 3), Fraction(1, 1000), math.pi / 2, 22, None),
    ],
    ids=[
        "etas0-paper-announcers0-11-q1_exact0",
        "etas1-physical-announcers1-12-q1_exact1",
        "phi-i-paper",
        "phi-i-physical-darks",
    ],
)
def test_x_basis_monte_carlo_matches_exact_oracle(table, etas, mode, announcers, y0, delta, seed, pinned):
    cfg = TrialConfig(
        etas=etas, y0=y0, mode=mode, basis="x", announcers=announcers, delta=delta, trials=2_000_000, seed=seed
    )
    q1, e1 = _exact_x(cfg, table)
    assert pinned is None or (q1, e1) == pinned
    tally = run_trials(cfg)
    q1, e1 = float(q1), float(e1)
    assert abs(tally.q1_hat - q1) <= 3 * math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert abs(tally.e1_hat - e1) <= 3 * math.sqrt(e1 * (1 - e1) / tally.accepted)


def test_exact_x_depends_on_delta_only_through_dark_counts(table):
    # no outcome that fills a detection pattern by itself mixes phase powers,
    # so without dark counts Q1 and e1 are the same at delta = 0 and pi/2
    for y0, same in ((0, True), (Fraction(1, 1000), False)):
        zero, quarter = (
            _exact_x(TrialConfig(etas=_UNEVEN, y0=y0, basis="x", announcers=(1, 3), delta=d), table)
            for d in (0.0, math.pi / 2)
        )
        assert (zero == quarter) is same


def test_estimate_edges():
    cfg = TrialConfig(trials=1000, seed=1)
    empty = Tally(cfg, 1000, 0, 0, 0, (0,) * 5, (0,) * 5)
    rep = estimate(empty)
    assert rep.q1_hat == 0.0 and rep.e1_hat is None
    full = Tally(cfg, 1000, 1000, 1000, 0, (0, 0, 0, 0, 1000), (0,) * 5)
    rep = estimate(full)
    assert rep.q1_hat == 1.0 and rep.e1_hat == 0.0
    synthetic = Tally(cfg, 10**6, 4000, 3906, 0, (0, 0, 0, 0, 3906), (0,) * 5)
    assert estimate(synthetic).q1_hat == pytest.approx(3.906e-3)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert lo > 0.95 and hi == 1.0


def _walk_enumerate(cfg, tab):
    """The enumerator's walk over patterns x photon outcomes, kept verbatim as
    the reference for its cached click terms (the totals use the left fold)."""
    from wqkd.protocol import EnumerationResult, _party_bit, _z_outcomes, slot_mask

    y0 = cfg.y0
    no_dark_rest = (1 - y0) ** 12
    pattern_masks = {
        label: [(p, slot_mask(p)) for p in tab.patterns[label]] for label in tab.patterns
    }
    gain = [Fraction(0)] * 5
    err = [Fraction(0)] * 5
    for bits in range(16):
        ann = (_party_bit(bits, cfg.announcers[0]), _party_bit(bits, cfg.announcers[1]))
        labels = {(0, 0): (0, 1), (1, 1): (12, 13)}.get(ann)
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
    total_gain = left_sum(gain)
    total_err = left_sum(err)
    e1 = None if total_gain == 0 else total_err / total_gain
    return EnumerationResult(cfg.mode, total_gain, e1, tuple(gain), tuple(err))


def _same_bits(res, ref):
    def typed(r):
        values = (r.q1, r.e1, *r.gain_cases, *r.error_cases)
        return [(type(v), v) for v in values]

    return typed(res) == typed(ref)


def _seeded_configs(n, seed=2024):
    rng = random.Random(seed)
    pairs = list(combinations(range(4), 2))
    for i in range(n):
        if i % 4 == 0:  # boundary transmittances, as floats or ints
            etas = tuple(rng.choice((0.0, 1.0, 0, 1, rng.uniform(0, 1))) for _ in range(4))
        elif i % 2:
            etas = (math.exp(rng.uniform(math.log(1e-3), 0)),) * 4
        else:
            etas = tuple(rng.uniform(0, 1) for _ in range(4))
        y0 = 0.0 if i % 10 == 0 else 10 ** rng.uniform(-7, -1)
        mode = rng.choice(("paper", "physical"))
        yield TrialConfig(etas=etas, y0=y0, mode=mode, announcers=pairs[i % 6])


def test_cached_click_terms_equal_the_walk_bit_for_bit(table):
    configs = list(_seeded_configs(100))
    exact = [
        TrialConfig(etas=(Fraction(29, 2000),) * 4, y0=Fraction(602, 10**8), mode="physical"),
        TrialConfig(etas=(Fraction(1, 10), Fraction(1, 5), Fraction(0), Fraction(1)), y0=Fraction(1, 10**4),
                    mode="physical", announcers=(1, 3)),
        TrialConfig(etas=(Fraction(2, 5),) * 4, y0=Fraction(1, 37), mode="paper", announcers=(2, 3)),
        TrialConfig(etas=(Fraction(1, 3), 0.25, 1, 0), y0=0, mode="physical", announcers=(0, 2)),
    ]
    assert {c.announcers for c in configs} == set(combinations(range(4), 2))
    assert any(0 in c.etas and 1 in c.etas for c in configs)
    assert {c.mode for c in configs} == {"paper", "physical"}
    for cfg in configs + exact:
        assert _same_bits(exact_enumerate(cfg), _walk_enumerate(cfg, table)), cfg
