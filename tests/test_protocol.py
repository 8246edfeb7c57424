import dataclasses
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqkd import analyzer, fock, protocol
from wqkd.amplitude import Amplitude, _reduce_rows
from wqkd.analyzer import INPUT_MODES, OUTPUT_MODES, derive_detection_table, w_analyzer
from wqkd.errors import MixedPhaseWithoutDelta
from wqkd.fock import FockState, Mode, ModeMap, monomial, multiplicity_factor
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
    exact_enumerate,
    run_trials,
    survivor_coefficients,
    wilson_interval,
)

from conftest import (
    _full_product_rows,
    _live_masks,
    _outcomes,
    _reference_x_outcomes,
    _reference_z_outcomes,
    _survivor_state,
    _x_survivor_state,
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
    assert protocol._sift(int(bits, 2), basis, announcers) == (labels, error)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(mode="loose")
    with pytest.raises(ValueError):
        TrialConfig(basis="y")
    for trials in (0, 10**10 + 1):
        with pytest.raises(ValueError, match=r"trials must lie in \[1, 10000000000\] at y0=6.02e-06, got"):
            TrialConfig(trials=trials)
    # trials and expected dark clicks share one budget, so a denser dark rate caps the trials
    # lower; 10**10 trials at y0 = 1/320 once passed a trial cap and a dark-click cap both
    for y0, limit in ((Fraction(1, 320), 5564117333), (0.99, 39362565)):
        for trials in (limit + 1, 10**10):
            with pytest.raises(ValueError, match=rf"trials must lie in \[1, {limit}\] at y0={y0}, got {trials}$"):
                TrialConfig(y0=y0, trials=trials)
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
    # a float party index fails in _party_bit, and a bool one runs as party 0 or 1
    for announcers in ((0.5, 2), (1.0, 2), (True, 2), (0, 3.0), (2, False), (0, 1, 1)):
        with pytest.raises(ValueError, match="announcers"):
            TrialConfig(announcers=announcers)
    # boundary values and exact fractions stay valid
    TrialConfig(etas=(Fraction(0), Fraction(1), 0.0, 1.0), y0=Fraction(0), seed=0)
    TrialConfig(trials=10**10)
    TrialConfig(etas=(Fraction(1, 3),) * 4, y0=Fraction(1, 320), trials=5564117333)
    TrialConfig(y0=0.99, trials=39362565)
    TrialConfig(y0=math.nextafter(1.0, 0.0))  # `enumerate --y0 0.99` builds its configs at the default trials


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
    # dead outcomes included, so weights alone must sum to one over inputs
    # and survival subsets
    from wqkd.protocol import _party_bit

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
            mass = sum((p for _, p, _, _ in _outcomes(tuple(survivors), None)), Fraction(0))
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


def test_enumeration_is_invariant_under_the_double_party_swaps():
    # the relay's Z tables are symmetric under (a b)(c d), (a c)(b d) and
    # (a d)(b c), so moving every party with its transmittance and announcer
    # role leaves each exact Fraction as it was; the single swap (a b) is no
    # symmetry, and changes the result for every pair and mode
    etas, y0 = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)), Fraction(1, 10**3)

    def moved(perm, announcers, mode):  # party p becomes party perm[p]
        cfg = TrialConfig(etas=tuple(etas[perm.index(q)] for q in range(4)), y0=y0, mode=mode,
                          announcers=tuple(perm[r] for r in announcers))
        return exact_enumerate(cfg)

    changed = 0
    for announcers, mode in product(permutations(range(4), 2), ("paper", "physical")):
        base = moved((0, 1, 2, 3), announcers, mode)
        assert isinstance(base.q1, Fraction)
        for perm in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            assert moved(perm, announcers, mode) == base, (announcers, mode, perm)
        changed += moved((1, 0, 2, 3), announcers, mode) != base
    assert changed == 24


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
    # slots and none of the 12 slots outside P fires; its cell where the
    # clicks hit label L says whether L accepts it (2 and up) and whether it
    # errs (7 and up)
    cfg = TrialConfig(etas=etas, y0=y0, mode=mode)
    prob, _, mask, cell = protocol._weighted_merge(cfg)
    mask, cell = mask[:-1], cell.reshape(mask.size, -1)[:-1]  # the dead bucket's row is last
    photons_in = np.array([int(m).bit_count() for m in mask])
    gain = err = 0.0
    for label, pats in table.patterns.items():
        hit = cell[:, 1 << analyzer._LABEL_TO_IDX[label]]
        for pat in pats:
            pmask = analyzer.slot_mask(pat)
            inside = ((mask | pmask) == pmask) & (hit >= 2)
            w = prob[inside] * y0 ** (4 - photons_in[inside]) * (1 - y0) ** 12
            gain += w.sum()
            err += w[hit[inside] >= 7].sum()
    exact = exact_enumerate(
        TrialConfig(etas=tuple(Fraction(e) for e in etas), y0=Fraction(y0), mode=mode)
    )
    assert gain == pytest.approx(float(exact.q1), rel=1e-12, abs=0)
    assert err == pytest.approx(float(sum(exact.error_cases)), rel=1e-12, abs=0)


def test_cached_entries_equal_a_fresh_merge(reference_entries):
    # the merge is cached per table and sift, the weights are not: every sift
    # of both bases, with etas of 0 and 1 that empty whole entries, which
    # stay in the cached table with probability 0
    rng = random.Random(14)
    for basis, mode, announcers in product("zx", ("paper", "physical"), permutations(range(4), 2)):
        for _ in range(4):
            etas = tuple(rng.choice((0, 0.0145, 0.5, 1)) for _ in range(4))
            cfg = TrialConfig(etas, mode=mode, basis=basis, announcers=announcers)
            want = reference_entries(cfg)
            prob, no_dark, mask, cell = protocol._weighted_merge(cfg)
            cell = cell.reshape(mask.size, -1)
            assert mask[-1] == 0 and not cell[-1].any(), cfg  # the dead bucket clicks nowhere, tallies in cell 0
            live = prob != 0
            for name, got in (("prob", prob), ("mask", mask[:-1]), ("cell", cell[:-1]), ("no_dark", no_dark)):
                # the cached tally cells are int8; every other field keeps its dtype
                assert name in ("cell", "no_dark") or got.dtype == getattr(want, name).dtype, (cfg, name)
                assert np.array_equal(got[live], getattr(want, name)), (cfg, name)
            merges, key = analyzer.relay().merges, (None if basis == "z" else cfg.delta, mode, tuple(sorted(announcers)))
            merge, keys = merges[key], list(merges)
            run_trials(dataclasses.replace(cfg, trials=1))  # a run reads the merge just made
            assert list(merges) == keys and merges[key] is merge, cfg


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
    # with several darks; delta 0 shares the X table with the other X tests
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


@pytest.mark.parametrize("basis", "zx")
@pytest.mark.parametrize("y0", [6.02e-6, 1e-3, 1e-2, 0.2])
def test_sampler_equals_per_trial_reference_across_holds(reference_run_trials, basis, y0):
    # 20 chunks and a 777-trial tail: at 6.02e-6 every chunk waits for the
    # one pass after the last chunk, at 1e-3 a pass runs every few chunks,
    # and from 1e-2 on every chunk passes alone
    cfg = TrialConfig((0.5, 0.3, 0.7, 0.5), y0, "physical" if basis == "z" else "paper", basis, (0, 2),
                      20 * protocol._CHUNK + 777, 20)
    assert run_trials(cfg) == reference_run_trials(cfg)


@pytest.fixture
def fresh_relay():
    analyzer.relay.cache_clear()
    relay = analyzer.relay()
    relay.z_outcomes  # built before a stand-in for _live_outcomes can reach it
    yield relay
    analyzer.relay.cache_clear()  # stand-in tables must not reach the next test


def test_x_caches_hold_one_delay(monkeypatch, fresh_relay):
    # an X table stands in for itself with the Z one, and each fill is logged
    fills = []
    monkeypatch.setattr(analyzer, "_live_outcomes", lambda delta: fills.append(delta) or fresh_relay.z_outcomes)
    sift = ("physical", (0, 1))
    z_merge = protocol._entry_merge(None, *sift)
    for delta in (0.1, 0.2, 0.3):
        protocol._entry_merge(delta, *sift)  # a sweep: each delay's table replaces the last
    assert (fills, fresh_relay.x[0]) == ([0.1, 0.2, 0.3], 0.3)
    protocol._entry_merge(0.1, *sift)  # a warm run at an earlier delay reads its merge, not a table
    protocol._entry_merge(0.3, "paper", (0, 1))  # a new sift reads the table it has, and the oldest merge goes
    assert fills == [0.1, 0.2, 0.3]
    assert list(fresh_relay.merges) == [(0.1, *sift), (0.2, *sift), (0.3, *sift), (0.3, "paper", (0, 1))]
    assert protocol._entry_merge(None, *sift) is not z_merge and len(fresh_relay.merges) == 4  # merged again


@pytest.mark.parametrize(
    "delta, power", [(1e308, 2), (-1e308, 2), (5e307, 4), (3e307, 6), (2.5e307, 8), (2.2e307, None)]
)
def test_an_overflowing_delay_is_rejected_before_any_fill(monkeypatch, delta, power):
    # the live rows reach phase power 8, four photons times the composed
    # map's largest single-photon power: the check before a fill rejects
    # exactly the delays that the fill's own check rejects, with its message
    message = f"delay delta={delta!r} is too large: phase power {power} times delta overflows"
    fill, filled = analyzer._live_outcomes, []
    monkeypatch.setattr(analyzer, "_live_outcomes", filled.append)  # a fill that only logs its delay
    for run in (fill, analyzer.Relay().x_outcomes):  # the fill's own check, then the one before it
        if power is None:
            run(delta)
            continue
        with pytest.raises(ValueError) as exc:
            run(delta)
        assert str(exc.value) == message
    assert filled == ([delta] if power is None else [])


def test_z_and_x_rows_never_share_a_key(monkeypatch, fresh_relay):
    # the real delta-0 X table is computed once here, and the sweep's other
    # delay only has to push it out
    real = functools.cache(analyzer._live_outcomes)
    monkeypatch.setattr(analyzer, "_live_outcomes", lambda delta: real(delta) if delta == 0 else fresh_relay.z_outcomes)
    z = TrialConfig(etas=(0.5,) * 4, y0=1e-3, trials=200_000, seed=17)
    x = TrialConfig(etas=(0.8,) * 4, y0=1e-4, basis="x", delta=0.0, trials=200_000, seed=18)
    assert z.delta == x.delta == 0.0
    x_cold = run_trials(x)
    fresh_relay.x, fresh_relay.merges = None, {}
    z_tally = run_trials(z)
    assert fresh_relay.x is None  # the Z run read no X table
    assert run_trials(x) == x_cold
    assert list(fresh_relay.merges) == [(None, "physical", (0, 1)), (0.0, "physical", (0, 1))]  # no X run got the Z merge
    run_trials(dataclasses.replace(x, delta=0.3))
    assert run_trials(z) == z_tally
    assert run_trials(x) == x_cold  # its merge outlives the delta-0 table
    assert fresh_relay.x[0] == 0.3 and len(fresh_relay.merges) == 3


def test_a_pair_and_its_reverse_share_one_entry_merge(fresh_relay):
    # the sift is symmetric in the announcers, so the merge keys on the sorted pair
    for basis in "zx":
        cfg = TrialConfig(etas=(0.5, 0.3, 0.7, 0.9), y0=1e-3, basis=basis, announcers=(3, 1), trials=100_000, seed=8)
        tally = run_trials(cfg)
        assert dataclasses.replace(run_trials(dataclasses.replace(cfg, announcers=(1, 3))), config=cfg) == tally
    assert list(fresh_relay.merges) == [(None, "physical", (1, 3)), (0.0, "physical", (1, 3))]


def test_the_z_table_is_built_once_per_process(monkeypatch):
    # an X sweep pushes the Z merge out of the relay, never the Z table
    z = TrialConfig(etas=(0.5,) * 4, y0=1e-4, trials=1000, seed=5)
    run_trials(z)
    for delta, mode in product((0.1, 0.2, 0.3), ("paper", "physical")):
        run_trials(dataclasses.replace(z, mode=mode, basis="x", delta=delta))
    assert (None, z.mode, z.announcers) not in analyzer.relay().merges
    monkeypatch.setattr(analyzer, "_live_outcomes", lambda delta: pytest.fail("a table was built"))
    run_trials(z)  # the Z merge is rebuilt from the relay's table


def test_a_fresh_derivation_serves_none_of_the_old_tables():
    cfg = TrialConfig(trials=1000)
    want = exact_enumerate(cfg), run_trials(cfg)
    old = analyzer.relay()
    table = derive_detection_table(cache=False)
    new = analyzer.relay()
    assert new is not old and new.table is table and table == old.table
    assert (new.x, new.plans, new.merges) == (None, {}, {})
    assert (exact_enumerate(cfg), run_trials(cfg)) == want
    _assert_same_table(new.z_outcomes, old.z_outcomes, None)
    for name in ("table", "click_lookup", "product_rows", "z_outcomes"):
        assert getattr(new, name) is not getattr(old, name), name
    key = (None, cfg.mode, cfg.announcers)
    assert new.plans[cfg.announcers] is not old.plans[cfg.announcers] and new.merges[key] is not old.merges[key]


def test_x_basis_smoke():
    cfg = TrialConfig(etas=(1.0,) * 4, y0=0.0, basis="x", trials=30_000, seed=3)
    tally = run_trials(cfg)
    assert tally.announced > 0
    again = run_trials(cfg)
    assert again == tally


def test_x_outcomes_equal_superposition_reference(x_superposition_outcomes):
    # every survivor configuration of up to three photons, plus one of four
    configs = sorted({c for c in protocol._SURVIVORS if len(c) <= 3})
    configs.append(((0, 1), (1, 0), (2, 0), (3, 1)))
    delta = math.pi / 8
    for c in configs:
        assert _outcomes(c, delta) == x_superposition_outcomes(c, delta), c


_X_DELAYS = (0.0, math.pi / 8, math.pi / 2, 0.3, -1.1, 2 * math.pi, 7.0, 1e3, 1e300)


def _assert_same_table(table, oracle, delta):
    assert table[0] == oracle[0], delta  # the spans
    for name, a, b in zip(("prob", "mask", "free"), table[1:], oracle[1:]):
        assert a.dtype == b.dtype, (delta, name)
        assert [(type(v), v) for v in a.tolist()] == [(type(v), v) for v in b.tolist()], (delta, name)


def test_x_outcomes_equal_amplitude_reference_bit_for_bit(reference_x_outcomes, reference_live_table):
    # every survivor configuration at delays where phi -> 1 or i, generic ones,
    # and one where k * delta needs the full float range; the live table built
    # from the oracle's lists must be the package's arrays exactly
    configs = sorted(set(protocol._SURVIVORS))
    for delta in _X_DELAYS:
        want = {c: reference_x_outcomes(c, delta) for c in configs}
        for c in configs:
            outcomes = _outcomes(c, delta)
            assert outcomes == want[c], (delta, c)
            assert all(math.isfinite(p) for _, p, _, _ in outcomes), (delta, c)
        _assert_same_table(analyzer._live_outcomes(delta), reference_live_table(want.__getitem__, delta), delta)


def test_z_live_table_equals_the_reference_lists(reference_z_outcomes, reference_live_table):
    _assert_same_table(analyzer.relay().z_outcomes, reference_live_table(reference_z_outcomes, None), None)


def test_the_z_table_holds_one_exact_float_column(reference_z_outcomes):
    # no object column and no float copy: each probability is the exact abs2() * multiplicity
    _, prob, mask, free = analyzer.relay().z_outcomes
    assert (prob.dtype, mask.dtype, free.dtype) == (np.float64, np.int64, np.bool_)
    for c in sorted(set(protocol._SURVIVORS)):
        want = [p for _, p, _, _ in reference_z_outcomes(c)]
        assert [Fraction(p) for _, p, _, _ in _outcomes(c, None)] == want, c


@pytest.mark.parametrize("delta", [None, math.pi / 8], ids=["z", "x-pi/8"])
def test_live_tables_drop_only_dead_outputs(delta):
    # the live view of the product rows keeps every output inside a pattern
    # and no other, in the full listing's order, value and type
    live = _live_masks()[1]
    span, prob, mask, free = analyzer.relay().z_outcomes if delta is None else analyzer._live_outcomes(delta)
    assert sorted(span) == sorted(set(protocol._SURVIVORS))
    assert sum(s.stop - s.start for s in span.values()) == len(prob) == len(mask) == len(free)
    for c, own in span.items():
        want = [(type(p), p, m, f) for _, p, m, f in _outcomes(c, delta) if m in live]
        got = [(type(p), p, m, f) for p, m, f in zip(prob[own].tolist(), mask[own].tolist(), free[own].tolist())]
        assert got == want, c


@pytest.mark.parametrize("delta", [None, math.pi / 8], ids=["z", "x-pi/8"])
def test_an_output_is_bunching_free_exactly_when_its_mask_has_a_bit_per_photon(delta):
    # the identity the plan's paper rule rests on: k photons one per slot
    # click k slots, so a key's paper sum is its walk's sum at m = 4 - k
    span, _, mask, free = analyzer.relay().z_outcomes if delta is None else analyzer._live_outcomes(delta)
    assert free.any() and not free.all()
    for c, own in span.items():
        assert [bin(m).count("1") == len(c) for m in mask[own].tolist()] == free[own].tolist(), c


def test_a_new_delay_runs_no_kernel(monkeypatch):
    # X rows are signed sums of the cached product rows, so once they exist a
    # further delay costs one merge and one evaluation per configuration
    analyzer._live_outcomes(math.pi / 8)  # one X fill
    want = analyzer._live_outcomes(0.7)
    monkeypatch.setattr(fock, "_times_image", lambda *args: pytest.fail("the kernel ran"))
    _assert_same_table(analyzer._live_outcomes(0.7), want, 0.7)


def test_product_rows_keep_their_memory_bound():
    # sources kept apart share no rows: 0.76 MB peak in passes of four
    # sources, the four-photon blocks taken from the W batch; 3.9 MB in one
    # pass over all 81; the live rows take 0.33 MB
    w_analyzer().composed_map  # cached, and no part of the batch
    analyzer.relay().click_lookup  # the detection table that tells live outputs, likewise
    tracemalloc.start()
    try:
        slots, rows = analyzer.Relay.product_rows.func(analyzer.relay())  # built afresh, not kept
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert len(rows) == 81


def test_the_cold_table_keeps_its_memory_bound():
    # the W batch keeps its 7998 rows in int64 columns, 0.55 MB; with the 16
    # W states built from it one at a time, the cold table peaks at 1.40-1.49 MB
    w_analyzer().composed_map  # cached, and no part of the table
    analyzer.relay.cache_clear()
    tracemalloc.start()
    try:
        analyzer.relay().table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = analyzer.relay().w_rows[1].values()
    assert sum(len(ks) for _, ks, _, _ in blocks) == 7998
    assert sum(column.nbytes for block in blocks for column in block[:3]) == 575_856
    assert peak < 1_800_000


def test_a_cold_x_fill_keeps_its_memory_bound():
    # passes of four configurations over live rows peak at 1.47-1.48 MB; evaluating
    # every output one configuration at a time peaked at 3.4 MB
    analyzer.relay().product_rows  # which reads the detection table
    tracemalloc.start()
    try:
        analyzer._live_outcomes(0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_vacuum_and_product_rows_equal_one_monomial_kernel_calls():
    # no survivor: the vacuum, certain in either basis
    (vacuum,) = _survivor_state((), "z").terms()
    assert vacuum == ((), Amplitude.one())
    assert _outcomes((), None) == _reference_z_outcomes(()) == (((), 1.0, 0, True),)
    for delta in (0.0, 0.7):
        assert _outcomes((), delta) == _reference_x_outcomes((), delta) == (((), 1.0, 0, True),)
    # each configuration's full rows are those of its own kernel call, up to
    # the slot numbering and the half-power, which reduction removes
    slots, live_rows = analyzer.relay().product_rows
    full = _full_product_rows()
    assert full.keys() == live_rows.keys()
    composed = w_analyzer().composed_map
    live = _live_masks()[1]
    for c, (codes, ks, nums, h) in full.items():
        own_slots, own_rows = FockState.from_monomial(analyzer._product_monomial(c)).image_rows(composed)
        ((own_codes, own_ks, own_nums, own_h),) = own_rows.values()
        outputs = [[slots[i] for i in row] for row in codes.tolist()]
        assert outputs == [[own_slots[i] for i in row] for row in own_codes.tolist()], c
        assert np.array_equal(ks, own_ks), c
        for a, b in zip(_reduce_rows(nums, h), _reduce_rows(own_nums, own_h)):
            assert np.array_equal(a, b), c
        # the batch keeps exactly the rows of the live outputs, in order
        keep = [analyzer.slot_mask(slots[i] for i in row) in live for row in codes.tolist()]
        assert live_rows[c][3] == h, c
        for kept, column in zip(live_rows[c][:3], (codes, ks, nums)):
            assert kept.dtype == column.dtype == np.int64, c
            assert np.array_equal(kept, column[keep]), c


_small = st.integers(-4, 4)
_coef = st.tuples(_small, _small, st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 5))  # (p, q, r, s, h)
_photons = st.lists(st.builds(Mode, st.sampled_from("abc"), st.integers(0, 1)), max_size=4)


def _rows(powers):
    """A state and a mode map whose amplitudes hold up to ``powers`` phase powers."""
    amplitude = st.dictionaries(st.integers(-2, 2), _coef, min_size=1, max_size=powers).map(Amplitude)
    image = st.lists(st.tuples(st.sampled_from(OUTPUT_MODES), st.integers(0, 1), amplitude), max_size=3)
    return (
        st.dictionaries(_photons.map(lambda ms: monomial(*ms)), amplitude, max_size=3).map(FockState),
        st.fixed_dictionaries({sp: image.map(tuple) for sp in "abc"}).map(ModeMap),
    )


def _blocks(state, mm, scale):
    """The scaled state's kernel rows of each photon number, summed into one
    block with one source, and its outputs in Amplitude arithmetic."""
    state = state.scaled(Amplitude.gauss(scale))
    out = state.apply_mode_map(mm)
    slots, sources = state.image_rows(mm)
    by_photons = {}
    for mon in sources:
        by_photons.setdefault(len(mon), []).append((mon, 1))
    for n, terms in by_photons.items():
        block = fock._block_sum(sources, [terms], 0)
        yield slots, block, [(mon, amp) for mon, amp in out.terms() if len(mon) == n]


def _listing(slots, outputs):
    """(monomial, probability, slot mask, bunching-free flag) of each output."""
    _, codes, prob, mask, free = outputs
    mons = [tuple(slots[i] for i in row) for row in codes.tolist()]
    return tuple(zip(mons, prob.tolist(), mask.tolist(), free.tolist()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(*_rows(2), st.sampled_from(_X_DELAYS), st.sampled_from((1, 2**40 + 1)))
def test_x_evaluation_equals_abs2_on_any_rows(state, mm, delta, scale):
    # odd half-powers, r, s != 0, negative phase powers, cancelled outputs and,
    # scaled by 2**40 + 1, Python-int numerators all occur, which the survivor
    # states alone never show; the sampler reads each probability as a float
    for slots, block, amps in _blocks(state, mm, scale):
        want = tuple(
            (mon, float(amp.abs2(delta) * multiplicity_factor(mon)), analyzer.slot_mask(mon), len(set(mon)) == len(mon))
            for mon, amp in amps
        )
        assert _listing(slots, analyzer._row_outcomes(slots, *block, delta)) == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(*_rows(1), st.sampled_from((1, 2**40 + 1)))
def test_evaluation_without_delay_equals_abs2_on_any_rows(state, mm, scale):
    # without a delay, a block whose outputs each hold one phase power with an
    # exact float gives that float of abs2() * multiplicity; else its first
    # other output raises, as abs2() does if it mixes (None), or a ValueError:
    # irrational, or scaled by 2**40 + 1, which takes more than 53 bits
    for slots, block, amps in _blocks(state, mm, scale):
        want = [
            (mon, amp.abs2() * multiplicity_factor(mon) if len(amp.phase_powers()) == 1 else None,
             analyzer.slot_mask(mon), len(set(mon)) == len(mon))
            for mon, amp in amps
        ]
        if bad := [p for _, p, _, _ in want if not isinstance(p, Fraction) or float(p) != p]:
            with pytest.raises(MixedPhaseWithoutDelta if bad[0] is None else ValueError) as exc:
                analyzer._row_outcomes(slots, *block, None)
            assert (exc.type is MixedPhaseWithoutDelta) is (bad[0] is None)
            continue
        assert _listing(slots, analyzer._row_outcomes(slots, *block, None)) == tuple(want)  # exact: float == Fraction


def test_evaluation_without_delay_raises_where_a_float_would_round():
    # one output on slot s0, exactly 1 at phase power 0: (1 + sqrt2)**2 is
    # irrational, and (2**40 + 1)**2 needs 81 bits; at a delay each is rounded once
    slots, one = [Mode("s", 0)], (np.zeros(1, np.int64), np.zeros((1, 1), np.int64), np.zeros(1, np.int64))
    for nums, value in (([1, 0, 1, 0], 3 + 2 * math.sqrt(2)), ([2**40 + 1, 0, 0, 0], float((2**40 + 1) ** 2))):
        block = (*one, np.array([nums], np.int64), 0)
        with pytest.raises(ValueError, match="^output 's0' has no exact float probability$") as exc:
            analyzer._row_outcomes(slots, *block, None)
        assert exc.type is ValueError  # no mixed phase powers
        assert analyzer._row_outcomes(slots, *block, 0.0)[2].tolist() == [value]


def _evaluated(slots, block, delta):
    """``_row_outcomes`` of one block, or the message of the error it raised."""
    try:
        return analyzer._row_outcomes(slots, *block, delta)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    *_rows(2),
    st.lists(st.integers(0, 3), min_size=2, max_size=3),
    st.sampled_from((None, *_X_DELAYS)),
    st.sampled_from((1, 2**40 + 1)),
)
def test_source_column_equals_per_source_calls(state, mm, picks, delta, scale):
    # blocks of equal photon number evaluated together, told apart by their
    # source, give what each gives alone, concatenated; a block picked twice
    # puts equal codes on both sides of a source boundary
    state = state.scaled(Amplitude.gauss(scale))
    slots, rows = state.image_rows(mm)
    by_photons = {}
    for mon, block in rows.items():
        by_photons.setdefault(len(mon), []).append(block)
    for blocks in by_photons.values():
        sources = [blocks[i % len(blocks)] for i in picks]
        h = sources[0][3]
        alone = [_evaluated(slots, (np.zeros(len(ks), np.int64), codes, ks, nums, h), delta) for codes, ks, nums, _ in sources]
        src = np.repeat(np.arange(len(sources)), [len(ks) for _, ks, _, _ in sources])
        together = _evaluated(slots, (src, *(np.concatenate(c) for c in list(zip(*sources))[:3]), h), delta)
        raised = [a for a in alone if isinstance(a, str)]
        if raised:
            assert together == raised[0]
            continue
        want_src = np.concatenate([np.full(len(a[0]), i) for i, a in enumerate(alone)])
        assert np.array_equal(together[0], want_src)
        for j in (1, 3, 4):  # codes, mask, bunching-free flag
            assert np.array_equal(together[j], np.concatenate([a[j] for a in alone]))
        # repr tells -0.0 from 0.0
        assert list(map(repr, together[2].tolist())) == [repr(p) for a in alone for p in a[2].tolist()]


def test_z_outcomes_equal_direct_propagation(reference_z_outcomes):
    # the reference: each survivor's own bin propagated as one monomial
    configs = sorted(set(protocol._SURVIVORS))
    assert len(configs) == 81
    for c in configs:
        state = w_analyzer().propagate(FockState.from_monomial(Mode(INPUT_MODES[p], z) for p, z in c))
        assert _survivor_state(c, "z") == state, c
        reference = tuple(
            (mon, state.pattern_probability(mon), analyzer.slot_mask(mon), len(set(mon)) == len(mon))
            for mon, _ in state.terms()
        )
        assert reference_z_outcomes(c) == reference, c
        assert _outcomes(c, None) == reference, c  # a float equals a Fraction only at its exact value


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
        for mon, amp in _x_survivor_state(survivors).terms()
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
    patterns = [analyzer.slot_mask(p) for pats in table.patterns.values() for p in pats]
    ra, rb = cfg.announcers
    ha, hb = (party for party in range(4) if party not in cfg.announcers)
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
                mask = analyzer.slot_mask(mon)
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
    assert empty.q1_hat == 0.0 and empty.e1_hat is None
    assert empty.per_case_fraction is None  # 0/0, not five zeros that fail to sum to 1
    full = Tally(cfg, 1000, 1000, 1000, 0, (0, 0, 0, 0, 1000), (0,) * 5)
    assert full.q1_hat == 1.0 and full.e1_hat == 0.0
    assert full.per_case_fraction == (0.0, 0.0, 0.0, 0.0, 1.0)
    synthetic = Tally(cfg, 10**6, 4000, 3906, 0, (0, 0, 0, 0, 3906), (0,) * 5)
    assert synthetic.q1_hat == pytest.approx(3.906e-3)


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
    from wqkd.analyzer import slot_mask
    from wqkd.protocol import EnumerationResult, _party_bit

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
        ha, hb = (party for party in range(4) if party not in cfg.announcers)  # the key holders
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
            outcomes = _reference_z_outcomes(tuple(survivors))
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
    return EnumerationResult(total_gain, e1, tuple(gain), tuple(err))


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


# mixed channel types: each weight and total must take the walk's type at
# every step, the first eta deciding whether a weight starts as a Fraction
_MIXED_CHANNELS = {
    "fraction-etas-float-y0": ((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)), 1e-4),
    "float-first-then-fraction-and-int": ((0.3, Fraction(1, 4), 1, Fraction(3, 5)), 2e-3),
    "float-first-then-int-0": ((0.7, 0, Fraction(2, 5), 1), 1e-6),
    "numpy-float64-etas": (tuple(np.float64(eta) for eta in (0.2, 0.45, 0.6, 0.85)), 3e-5),
    "int-1-first-float-y0": ((1, 0.4, 0.7, Fraction(1, 2)), 1e-3),
    "int-0-first-float-y0": ((0, 0.4, 0.7, 0.9), 1e-3),
    "all-lost": ((0.0, 0.0, 0.0, 0.0), 1e-3),  # only case 0 has weight
    "none-lost": ((1.0, 1.0, 1.0, 1.0), 1e-3),  # only case 4
    "two-or-three-survive": ((1, 0.5, 0.0, 1), 1e-5),
}


@pytest.mark.parametrize("etas, y0", _MIXED_CHANNELS.values(), ids=_MIXED_CHANNELS.keys())
def test_mixed_type_channels_equal_the_walk_bit_for_bit(table, etas, y0):
    for mode in ("paper", "physical"):
        for announcers in ((0, 1), (3, 1)):  # the plan of (1, 3), reached in reverse
            cfg = TrialConfig(etas=etas, y0=y0, mode=mode, announcers=announcers)
            res = exact_enumerate(cfg)
            assert _same_bits(res, _walk_enumerate(cfg, table)), cfg
            reached = {bin(surv).count("1") for surv in range(16) if all(
                etas[p] != (0 if (surv >> (3 - p)) & 1 else 1) for p in range(4))}
            # a case no weight reaches keeps its Fraction(0)
            assert all((type(g) is Fraction) is (k not in reached) for k, g in enumerate(res.gain_cases)), cfg


def test_the_plan_is_built_once_per_announcer_pair(monkeypatch):
    pairs = list(combinations(range(4), 2))
    for r in pairs:
        for announcers in (r, r[::-1]):
            exact_enumerate(TrialConfig(announcers=announcers))
    assert len(analyzer.relay().plans) == 6  # a pair and its reverse share one plan
    calls = []
    monkeypatch.setattr(protocol, "_sift", lambda *args: calls.append("_sift"))
    monkeypatch.setattr(protocol, "_click_terms", lambda *args: calls.append("_click_terms"))
    for announcers, mode, y0 in product(pairs, ("paper", "physical"), (6.02e-6, Fraction(1, 1000))):
        exact_enumerate(TrialConfig(etas=(0.3, 0.5, 0.7, 0.9), y0=y0, mode=mode, announcers=announcers))
    assert calls == []
    assert len(analyzer.relay().plans) == 6
