import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqkd.errors import NoPositiveRate, ZeroGain
from wqkd.keyrate import (
    AnalyzerConstants,
    CaseBreakdown,
    ChannelParams,
    NoiseParams,
    RateParams,
    Transmittances,
    case_breakdown,
    e1_identical,
    h2,
    key_rate,
    left_sum,
    q1_identical,
    secure_distance,
    sweep,
    transmittance,
)
from wqkd.protocol import TrialConfig

K = AnalyzerConstants(Fraction(3, 64), Fraction(1, 64))


def test_transmittance():
    assert transmittance(ChannelParams(0.2, 0.0, 0.145)) == 0.145
    assert transmittance(ChannelParams(0.2, 50.0, 0.145)) == pytest.approx(0.0145)
    assert transmittance(ChannelParams(0.2, 90.0, 1.0)) == pytest.approx(10 ** -1.8)


def test_param_validation():
    with pytest.raises(ValueError):
        ChannelParams(-0.1, 0, 0.5)
    with pytest.raises(ValueError):
        ChannelParams(0.2, 0, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0)
    with pytest.raises(ValueError):
        Transmittances(0.5, 0.5, 0.5, 1.5)
    with pytest.raises(ValueError):
        RateParams(0.0)


_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 1e300, -1e300, 5e-324)),
    st.floats(0, 1),  # in range for most fields, so examples also build objects
)


# integer fields also get floats, integral ones included, and bools
_INTEGERS = st.one_of(st.integers(), st.integers().map(float), st.floats(), st.booleans())


def _finite(*values) -> bool:
    return all(map(math.isfinite, values))


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each class: how to build it from drawn values, and what its fields must satisfy
_PARAMETERS = {
    "ChannelParams": (
        lambda draw: ChannelParams(draw(_NUMBERS), draw(_NUMBERS), draw(_NUMBERS)),
        lambda c: _finite(c.alpha, c.arm_length_km) and c.alpha >= 0 and c.arm_length_km >= 0 and 0 < c.eta_d <= 1,
    ),
    "NoiseParams": (lambda draw: NoiseParams(draw(_NUMBERS)), lambda n: 0 <= n.y0 < 1),
    "RateParams": (lambda draw: RateParams(draw(_NUMBERS)), lambda r: 0 < r.q <= 1),
    "Transmittances": (
        lambda draw: Transmittances(*(draw(_NUMBERS) for _ in range(4))),
        lambda t: all(0 <= eta <= 1 for eta in t),
    ),
    "TrialConfig": (
        lambda draw: TrialConfig(
            etas=tuple(draw(_NUMBERS) for _ in range(4)),
            y0=draw(_NUMBERS),
            trials=draw(_INTEGERS),
            seed=draw(_INTEGERS),
            delta=draw(_NUMBERS),
        ),
        lambda c: all(0 <= eta <= 1 for eta in c.etas)
        and 0 <= c.y0 < 1
        and _finite(c.delta)
        and _integer(c.trials)
        and c.trials >= 1
        and _integer(c.seed)
        and c.seed >= 0,
    ),
}


@pytest.mark.parametrize("name", list(_PARAMETERS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_parameters_are_finite_and_in_range_or_raise(name, data):
    # a nan alpha once built a channel whose transmittance was nan
    build, valid = _PARAMETERS[name]
    try:
        params = build(data.draw)
    except ValueError:
        return
    assert valid(params), params


def test_h2():
    assert h2(0.5) == 1
    assert h2(0.0) == 0 and h2(1.0) == 0
    # direct evaluation: -0.11*log2(0.11) - 0.89*log2(0.89)
    assert h2(0.11) == pytest.approx(0.4999160, abs=1e-6)
    with pytest.raises(ValueError):
        h2(-0.01)


def test_case_breakdown_dark_only():
    cb = case_breakdown(Transmittances.equal(Fraction(0)), NoiseParams(Fraction(1, 100)), K)
    y0 = Fraction(1, 100)
    expected_gain = 8 * y0**4 * (1 - y0) ** 12
    assert cb.gain[0] == expected_gain
    assert cb.error[0] == expected_gain / 2
    assert all(g == 0 for g in cb.gain[1:])


def test_case_breakdown_ideal_photons():
    cb = case_breakdown(Transmittances.equal(Fraction(1)), NoiseParams(Fraction(0)), K)
    assert cb.gain[4] == Fraction(1, 256)
    assert cb.error[4] == 0
    assert all(g == 0 for g in cb.gain[:4])


def test_case4_equal_eta_reduces_to_49_coefficient():
    eta, y0 = Fraction(1, 3), Fraction(1, 50)
    cb = case_breakdown(Transmittances.equal(eta), NoiseParams(y0), K)
    want = Fraction(49, 128) * eta**3 * (1 - eta) * y0 * (1 - y0) ** 12
    assert cb.gain[3] == want


def test_error_at_most_half_gain_per_case():
    rng = random.Random(4)
    for _ in range(100):
        t = Transmittances(*(Fraction(rng.randrange(0, 101), 100) for _ in range(4)))
        cb = case_breakdown(t, NoiseParams(Fraction(rng.randrange(1, 50), 1000)), K)
        for g, e in zip(cb.gain, cb.error):
            assert e <= g / 2 if g else e == 0
        assert cb.error[4] == 0


def test_reduction_identity_exact():
    rng = random.Random(12)
    for _ in range(200):
        eta = Fraction(rng.randrange(0, 1001), 1000)
        y0 = Fraction(rng.randrange(1, 1000), 10**6)
        t = Transmittances.equal(eta)
        n = NoiseParams(y0)
        cb = case_breakdown(t, n, K)
        assert cb.total_gain == q1_identical(eta, n, K)
        if q1_identical(eta, n, K) > 0:
            assert cb.total_error / cb.total_gain == e1_identical(eta, n, K)


def test_identical_closed_form_points():
    assert q1_identical(Fraction(1), NoiseParams(Fraction(0)), K) == Fraction(1, 256)
    assert q1_identical(Fraction(0), NoiseParams(Fraction(0)), K) == 0
    q1 = q1_identical(0.0145, NoiseParams(6.02e-6), K)
    assert q1 == pytest.approx(1.796e-10, rel=1e-3)
    e1 = e1_identical(0.0145, NoiseParams(6.02e-6), K)
    assert e1 == pytest.approx(0.019, abs=1e-3)


def test_e1_limits():
    assert e1_identical(0.3, NoiseParams(0.0), K) == 0
    # with no photons the accepted events are pure dark coincidences: e1 -> 1/2
    assert e1_identical(Fraction(0), NoiseParams(Fraction(1, 10**6)), K) == Fraction(1, 2)
    with pytest.raises(ZeroGain):
        e1_identical(Fraction(0), NoiseParams(Fraction(0)), K)


def test_key_rate():
    assert key_rate(2e-10, 0.0) == pytest.approx(2e-10)
    assert key_rate(2e-10, 0.5) == pytest.approx(-2e-10)
    assert key_rate(1.8e-10, 0.019) == pytest.approx(1.3e-10, rel=0.05)


def test_sweep_monotone_and_bounds():
    c = ChannelParams(0.2, 0.0, 0.145)
    rows = sweep(c, NoiseParams(6.02e-6), K, RateParams(), [0, 50, 100, 150, 200])
    q1s = [r.q1 for r in rows]
    assert q1s == sorted(q1s, reverse=True)
    e1s = [r.e1 for r in rows]
    assert e1s == sorted(e1s)
    assert rows[0].r0 == max(r.r0 for r in rows)
    for r in rows:
        assert 0 <= r.q1 <= 1
        assert 0 <= r.e1 <= 0.5


def test_secure_distance_checkpoints():
    n = NoiseParams(6.02e-6)
    d145 = secure_distance(ChannelParams(0.2, 0.0, 0.145), n, K)
    assert 175 <= d145 <= 195
    d93 = secure_distance(ChannelParams(0.2, 0.0, 0.93), n, K)
    assert 250 <= d93 <= 275
    assert secure_distance(ChannelParams(0.2, 0.0, 0.145), NoiseParams(0.0), K, d_max=400.0) is None


def test_secure_distance_no_positive_rate():
    # a dark-count-dominated detector never yields a positive rate
    with pytest.raises(NoPositiveRate):
        secure_distance(ChannelParams(0.2, 0.0, 1e-6), NoiseParams(1e-3), K)


def test_totals_are_left_folds_on_every_interpreter():
    # compensated summation (math.fsum, builtin sum from Python 3.12) keeps
    # the four small terms; a left fold rounds each one away
    values = (1.0, 1e-16, 1e-16, 1e-16, 1e-16)
    assert math.fsum(values) == 1.0000000000000004
    assert left_sum(values) == 1.0
    cb = CaseBreakdown(values, values[::-1])
    assert cb.total_gain == 1.0
    assert cb.total_error == 1.0000000000000004  # the small terms add up first
    exact = (Fraction(1, 3), Fraction(1, 6), 0, Fraction(1, 2), Fraction(0))
    assert left_sum(exact) == 1 and type(left_sum(exact)) is Fraction
