"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from wqkd.amplitude import Amplitude
from wqkd.analyzer import (
    REFERENCE_OVERALL,
    REFERENCE_SUCCESS,
    bell_success_rates,
    derive_detection_table,
    propagate_w_state,
    reference_table,
)
from wqkd.fock import Mode
from wqkd.keyrate import (
    ChannelParams,
    NoiseParams,
    RateParams,
    Transmittances,
    case_breakdown,
    e1_identical,
    key_rate,
    q1_identical,
    secure_distance,
    transmittance,
)
from wqkd.protocol import TrialConfig, exact_enumerate, run_trials, survivor_coefficients
from wqkd.verify import ALL_SUITES


def _ok(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_detection_table_exact():
    t0 = time.perf_counter()
    table = derive_detection_table(cache=False)
    elapsed = time.perf_counter() - t0
    ref = reference_table()
    assert dict(table.patterns) == dict(ref.patterns)
    assert {len(v) for v in (table.patterns[0], table.patterns[12])} == {12}
    assert {len(v) for v in (table.patterns[1], table.patterns[13])} == {4}
    assert dict(table.success_probability) == dict(REFERENCE_SUCCESS)
    assert table.overall == REFERENCE_OVERALL == Fraction(1, 128)
    assert float(table.overall) == 0.0078125
    assert elapsed < 10.0
    _ok("criterion 1", f"32 reference patterns, 3/64 + 1/64 success, D_p = 1/128 ({elapsed:.2f}s)")


def test_criterion_2_four_photon_expansion_regression():
    st = propagate_w_state(0)
    assert st.n_terms == 200
    assert st.amplitude(
        [Mode("s", 0), Mode("s", 1), Mode("s", 1), Mode("s", 1)]
    ) == Amplitude.gauss(64, 0, 22, phase=2)
    assert st.amplitude(
        [Mode("s", 0), Mode("u", 1), Mode("v", 0), Mode("w", 2)]
    ) == Amplitude.gauss(128, 0, 22, phase=2)
    _ok("criterion 2", "200 monomials; anchor coefficients 64/2048 phi^2 and 128/2048 phi^2 exact")


def test_criterion_3_identity_suites_exact():
    wanted = (
        "w-catalog-orthonormality",
        "bell-decomposition",
        "x-basis-expansions",
        "w-basis-expansions",
        "entanglement-swap",
        "pauli-catalog",
        "network-isometries",
    )
    results = {name: fn() for name, fn in ALL_SUITES if name in wanted}
    for name, (ok, detail) in results.items():
        assert ok, f"{name}: {detail}"
    _ok("criterion 3", f"{len(results)} exact identity suites hold with zero tolerance")


def test_criterion_4_bell_rates():
    rates = bell_success_rates()
    assert rates["psi+"] == Fraction(1)
    assert rates["psi-"] == Fraction(1, 2)
    assert rates["phi+"] == Fraction(1, 2)
    assert rates["phi-"] == Fraction(0)
    _ok("criterion 4", "Bell rates exactly 1, 1/2, 1/2; phi- reported as 0")


def test_criterion_5_key_rate_checkpoints(constants):
    noise = NoiseParams(6.02e-6)
    t0 = time.perf_counter()
    d145 = secure_distance(ChannelParams(0.2, 0.0, 0.145), noise, constants)
    t1 = time.perf_counter()
    assert 175.0 <= d145 <= 195.0
    d93 = secure_distance(ChannelParams(0.2, 0.0, 0.93), noise, constants)
    t2 = time.perf_counter()
    assert 250.0 <= d93 <= 275.0
    checkpoints = ((100.0, 0.145), (180.0, 0.93))
    rates = []
    for dist, eta_d in checkpoints:
        eta = transmittance(ChannelParams(0.2, dist / 2, eta_d))
        q1 = q1_identical(eta, noise, constants)
        r0 = key_rate(q1, e1_identical(eta, noise, constants), RateParams(1.0))
        assert 2e-11 <= r0 <= 5e-10
        rates.append(r0)
    t3 = time.perf_counter()
    assert t1 - t0 < 1.0 and t2 - t1 < 1.0 and t3 - t2 < 1.0
    _ok(
        "criterion 5",
        f"secure distances {d145:.1f} km / {d93:.1f} km; "
        f"R0 checkpoints {rates[0]:.2e}, {rates[1]:.2e}",
    )


def test_criterion_6_formula_reduction(constants):
    rng = random.Random(2718)
    worst = 0.0
    for _ in range(1000):
        eta = 10 ** rng.uniform(-3, 0)
        y0 = 10 ** rng.uniform(-7, -3)
        n = NoiseParams(y0)
        t = Transmittances.equal(eta)
        cb = case_breakdown(t, n, constants)
        qg = cb.total_gain
        qi = q1_identical(eta, n, constants)
        worst = max(worst, abs(qg - qi) / qi)
        eg = cb.total_error / qg
        ei = e1_identical(eta, n, constants)
        if ei:
            worst = max(worst, abs(eg - ei) / ei)
    assert worst <= 1e-12
    # exact-rational variant: strict equality
    for _ in range(100):
        eta = Fraction(rng.randrange(1, 1000), 1000)
        y0 = Fraction(rng.randrange(1, 10**4), 10**7)
        n = NoiseParams(y0)
        t = Transmittances.equal(eta)
        cb = case_breakdown(t, n, constants)
        assert cb.total_gain == q1_identical(eta, n, constants)
        assert cb.total_error / cb.total_gain == e1_identical(eta, n, constants)
    _ok("criterion 6", f"reduction identity at 1000 float points (worst {worst:.1e}) and 100 exact points")


def test_criterion_7_oracle_equivalence(constants):
    # exact per-survivor-set coefficients: enumerator vs the closed-form model
    enum = survivor_coefficients("paper")
    y0 = Fraction(1, 3)
    for surv in range(16):
        parties = frozenset(p for p in range(4) if (surv >> (3 - p)) & 1)
        etas = tuple(Fraction(1) if p in parties else Fraction(0) for p in range(4))
        cb = case_breakdown(Transmittances(*etas), NoiseParams(y0), constants)
        k = len(parties)
        base = y0 ** (4 - k) * (1 - y0) ** 12
        assert enum[parties] == (cb.gain[k] / base, cb.error[k] / base), parties
    # the halving-breaking case-4 pair is genuine and confirmed
    assert enum[frozenset({0, 2, 3})] == (Fraction(15, 256), Fraction(7, 256))
    # twenty numeric points across the stated parameter box
    rng = random.Random(137)
    worst = 0.0
    for _ in range(20):
        eta = 10 ** rng.uniform(-3, 0)
        y0f = 10 ** rng.uniform(-7, -4)
        res = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=y0f, mode="paper"))
        q1c = q1_identical(eta, NoiseParams(y0f), constants)
        e1c = e1_identical(eta, NoiseParams(y0f), constants)
        worst = max(worst, abs(float(res.q1) - q1c) / q1c, abs(float(res.e1) - e1c) / e1c)
    assert worst <= 1e-9
    _ok(
        "criterion 7",
        f"all 16 survivor coefficients exact incl. the (15, 7) case-4 pair; "
        f"20-point worst rel delta {worst:.1e}",
    )


def test_criterion_8_monte_carlo_consistency():
    cfg = TrialConfig(etas=(0.5,) * 4, y0=1e-5, mode="physical", trials=10_000_000, seed=20240)
    t0 = time.perf_counter()
    tally = run_trials(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    exact = exact_enumerate(
        TrialConfig(etas=(Fraction(1, 2),) * 4, y0=Fraction(1, 10**5), mode="physical")
    )
    q1 = float(exact.q1)
    sigma_q = math.sqrt(q1 * (1 - q1) / cfg.trials)
    assert abs(tally.q1_hat - q1) <= 3 * sigma_q
    e1 = float(exact.e1)
    sigma_e = math.sqrt(e1 * (1 - e1) / tally.accepted)
    assert abs(tally.e1_hat - e1) <= 3 * sigma_e
    rerun = run_trials(cfg)
    assert rerun == tally
    _ok(
        "criterion 8",
        f"1e7 trials in {elapsed:.1f}s; Q1 pull {(tally.q1_hat - q1) / sigma_q:+.2f} sigma, "
        f"e1 pull {(tally.e1_hat - e1) / sigma_e:+.2f} sigma; rerun bit-identical",
    )


def test_criterion_9_physical_vs_paper_accounting():
    noise = Fraction(602, 10**8)
    for eta_d, dist in ((0.145, 100.0), (0.93, 180.0)):
        eta = Fraction(transmittance(ChannelParams(0.2, dist / 2, eta_d))).limit_denominator(10**9)
        paper = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=noise, mode="paper"))
        phys = exact_enumerate(TrialConfig(etas=(eta,) * 4, y0=noise, mode="physical"))
        gap = (phys.q1 - paper.q1) / paper.q1
        assert 0 <= gap <= 0.02
    _ok("criterion 9", f"physical/paper gain gap {float(gap):.2e} at the sweep checkpoints (<= 2%)")
