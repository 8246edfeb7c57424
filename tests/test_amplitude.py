import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqkd.amplitude import Amplitude, accumulate
from wqkd.errors import MixedPhaseWithoutDelta


def rand_amp(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(-3, 4)
        terms[k] = (
            rng.randrange(-9, 10),
            rng.randrange(-9, 10),
            rng.randrange(-3, 4),
            rng.randrange(-3, 4),
            rng.randrange(0, 6),
        )
    return Amplitude(terms)


def test_zero_and_one():
    assert Amplitude.zero().is_zero
    assert Amplitude.one() + Amplitude.zero() == Amplitude.one()
    assert (Amplitude.one() - Amplitude.one()).is_zero


def test_truth_value_is_nonzero():
    # no caller tests an amplitude's truth today; without __bool__ a zero would be truthy
    assert bool(Amplitude.zero()) is False
    assert bool(Amplitude.one()) is True
    assert bool(Amplitude.one() - Amplitude.one()) is False


def test_accumulate_drops_zero_sums():
    terms = {"other": Amplitude.one()}
    accumulate(terms, "k", Amplitude.zero())
    assert "k" not in terms
    accumulate(terms, "k", Amplitude.one())
    accumulate(terms, "k", Amplitude.one())
    assert terms == {"other": Amplitude.one(), "k": Amplitude.gauss(2)}
    accumulate(terms, "k", Amplitude.gauss(-2))
    assert terms == {"other": Amplitude.one()}


# as rand_amp draws them: up to 3 phase powers, each with a small (p, q, r, s, h)
_AMPLITUDES = st.dictionaries(
    st.integers(-3, 3),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 5)),
    max_size=3,
).map(Amplitude)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_AMPLITUDES, _AMPLITUDES, _AMPLITUDES)
def test_ring_laws_randomized(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_AMPLITUDES)
def test_canonical_idempotence(a):
    rebuilt = Amplitude({k: a.coefficient(k) for k in a.phase_powers()})
    assert rebuilt == a


def test_phase_multiplication_adds_powers():
    a = Amplitude.gauss(3, -1, 2, phase=1)
    b = Amplitude.gauss(1, 1, 1, phase=2)
    assert (a * b).phase_powers() == (3,)


def test_conjugation_negates_phase_and_imaginary():
    a = Amplitude.gauss(2, 5, 3, phase=2)
    c = a.conjugate()
    assert c.phase_powers() == (-2,)
    assert c.coefficient(-2) == (2, -5, 0, 0, 3)
    # self-product lands on phase power zero with a non-negative real value
    rng = random.Random(11)
    for _ in range(100):
        x = rand_amp(rng, max_terms=1)
        prod = x * x.conjugate()
        assert set(prod.phase_powers()) <= {0}
        _p, q, _r, s, _h = prod.coefficient(0)
        assert q == 0 and s == 0
        value = prod.evaluate(0.0)
        assert value.imag == 0 and value.real >= 0


def test_abs2_unique_phase_is_exact():
    # 128 * phi^2 / 2048 has squared magnitude (128/2048)^2 = 1/256
    a = Amplitude.gauss(128, 0, 22, phase=2)
    assert a.abs2() == Fraction(1, 256)
    assert Amplitude.zero().abs2() == 0
    # (1 + i)/sqrt(2) has unit magnitude
    assert Amplitude.gauss(1, 1, 1).abs2() == 1


def test_abs2_mixed_phase_requires_delta():
    a = Amplitude.gauss(1) + Amplitude.gauss(1, phase=1)
    with pytest.raises(MixedPhaseWithoutDelta):
        a.abs2()
    # |1 + e^{i*delta}|^2 = 2 + 2 cos(delta)
    assert a.abs2(0.0) == pytest.approx(4.0)
    import math

    assert a.abs2(math.pi) == pytest.approx(0.0, abs=1e-12)


def test_mixed_parity_addition_is_exact():
    half_power = Amplitude.gauss(1, 0, 1)  # 1/sqrt(2)
    s = Amplitude.one() + half_power
    assert s - half_power == Amplitude.one()
    assert s * s == Amplitude.one() + 2 * half_power + Amplitude.gauss(1, 0, 2)


def test_at_phase_one_collapses_exactly():
    a = Amplitude.gauss(1, phase=0) - Amplitude.gauss(1, phase=2)
    assert a.at_phase_one().is_zero
    b = Amplitude.gauss(1, 0, 1, phase=0) + Amplitude.gauss(1, 0, 1, phase=1)
    assert b.at_phase_one().abs2() == 2


def test_rendering():
    a = Amplitude.gauss(128, 0, 22, phase=2)
    assert str(a) == "(1+0i)/2^(8/2) * phi^2"
    assert str(Amplitude.zero()) == "0"
    b = Amplitude.gauss(-1, 2, 3, phase=-1)
    assert str(b) == "(-1+2i)/2^(3/2) * phi^-1"


def test_evaluate_is_independent_of_accumulation_order():
    # equal amplitudes accumulated in opposite orders; summed in dict order
    # their float values differed in the last ulp
    terms = (
        Amplitude.gauss(64, -6, 0, phase=4),
        Amplitude.gauss(36, -21, 2, phase=5),
        Amplitude.gauss(-13, -5, 6, phase=6),
    )
    forward = terms[0] + terms[1] + terms[2]
    backward = terms[2] + terms[1] + terms[0]
    assert forward == backward
    delta = math.pi / 8
    assert forward.evaluate(delta) == backward.evaluate(delta)
    assert forward.abs2(delta) == backward.abs2(delta)
