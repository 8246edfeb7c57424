import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wqkd import fock, protocol
from wqkd.amplitude import Amplitude
from wqkd.analyzer import INPUT_MODES, splitter_map, w_analyzer
from wqkd.errors import UnmappedMode
from wqkd.fock import FockState, Mode, ModeMap, mode, monomial
from wqkd.qubits import encode_fock, w_state

from conftest import _survivor_state


def a0() -> Mode:
    return Mode("a", 0)


def test_mode_validation():
    for label in ("i", "", "ab"):  # i is not in the alphabet; "" and "ab" are substrings of it
        with pytest.raises(ValueError):
            mode(label, 0)
    with pytest.raises(ValueError):
        mode("a", -1)


def test_monomial_sorting_and_multiplicity():
    m = monomial(Mode("u", 1), Mode("s", 0), Mode("s", 0))
    assert m == (Mode("s", 0), Mode("s", 0), Mode("u", 1))
    from wqkd.fock import multiplicity_factor

    assert multiplicity_factor(m) == 2
    assert multiplicity_factor((Mode("s", 1),) * 3) == 6


def test_add_examples():
    s = FockState.single(a0())
    assert (s + s.scaled(-1)).is_zero
    t = FockState.single(Mode("a", 1))
    both = s + t
    assert both.n_terms == 2
    half = FockState.single(a0(), Amplitude.gauss(1, 0, 2))
    assert half + half == FockState.single(a0())


def test_tensor_examples():
    pa = FockState.single(Mode("a", 0))
    pb = FockState.single(Mode("b", 0))
    assert pa.tensor(pb).amplitude([Mode("a", 0), Mode("b", 0)]) == Amplitude.one()
    assert pa.tensor(FockState.vacuum()) == pa
    pc = FockState.single(Mode("c", 0))
    bunched = pc.tensor(pc)
    assert bunched.amplitude([Mode("c", 0), Mode("c", 0)]) == Amplitude.one()
    assert bunched.n_terms == 1


def test_splitter_action_on_single_photon():
    bs = splitter_map("a", "b", "c", "d")
    out = FockState.single(a0()).apply_mode_map(bs)
    assert out.amplitude([Mode("c", 0)]) == Amplitude.gauss(0, -1, 1)
    assert out.amplitude([Mode("d", 0)]) == Amplitude.gauss(1, 0, 1)
    assert FockState.vacuum().apply_mode_map(bs) == FockState.vacuum()


def test_two_photon_bunching():
    bs = splitter_map("a", "b", "c", "d")
    out = FockState.from_monomial([Mode("a", 0), Mode("b", 0)]).apply_mode_map(bs)
    # photons bunch: (-i/2)(c0^2 + d0^2)
    assert out.n_terms == 2
    assert out.amplitude([Mode("c", 0), Mode("c", 0)]) == Amplitude.gauss(0, -1, 2)
    assert out.amplitude([Mode("d", 0), Mode("d", 0)]) == Amplitude.gauss(0, -1, 2)
    assert out.norm_squared() == 1
    assert out.pattern_probability([Mode("c", 0), Mode("c", 0)]) == Fraction(1, 2)


def test_unmapped_mode_raises(monkeypatch):
    bs = splitter_map("a", "b", "c", "d")
    with pytest.raises(UnmappedMode):
        FockState.single(Mode("e", 0)).apply_mode_map(bs)
    # raised before any photon is propagated, even when other monomials map
    monkeypatch.setattr(fock, "_times_image", lambda *args: pytest.fail("propagation started"))
    mixed = FockState.from_monomial([Mode("a", 0), Mode("b", 1)]) + FockState.single(Mode("e", 0))
    with pytest.raises(UnmappedMode):
        mixed.apply_mode_map(bs)


def test_mode_map_composition_law():
    bs1 = splitter_map("a", "b", "c", "d")
    bs2 = splitter_map("c", "d", "e", "f")
    state = FockState.from_monomial([Mode("a", 0), Mode("b", 1)])
    sequential = state.apply_mode_map(bs1).apply_mode_map(bs2)
    composed = state.apply_mode_map(bs1.compose(bs2))
    assert sequential == composed


def test_apply_is_linear():
    rng = random.Random(5)
    bs = splitter_map("a", "b", "c", "d")
    for _ in range(50):
        s1 = FockState.single(Mode("a", rng.randrange(2)), Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4)))
        s2 = FockState.single(Mode("b", rng.randrange(2)), Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4)))
        alpha = Amplitude.gauss(rng.randrange(-2, 3), rng.randrange(-2, 3))
        lhs = (s1.scaled(alpha) + s2).apply_mode_map(bs)
        rhs = s1.apply_mode_map(bs).scaled(alpha) + s2.apply_mode_map(bs)
        assert lhs == rhs


def test_norm_squared_zero_state():
    assert FockState.zero().norm_squared() == 0


def test_norm_squared_mixed_phase_needs_delta():
    from wqkd.errors import MixedPhaseWithoutDelta

    st = FockState.single(a0(), Amplitude.gauss(1) + Amplitude.gauss(1, phase=1))
    with pytest.raises(MixedPhaseWithoutDelta):
        st.norm_squared()
    assert st.norm_squared(0.0) == pytest.approx(4.0)
    assert st.norm_amplitude() == Amplitude.gauss(2) + Amplitude.gauss(1, phase=1) + Amplitude.gauss(1, phase=-1)


def test_pattern_probability_absent_pattern():
    s = FockState.single(a0())
    assert s.pattern_probability([Mode("b", 0)]) == 0


def test_identity_extension():
    bs = splitter_map("a", "b", "c", "d").extended("e")
    out = FockState.from_monomial([Mode("a", 0), Mode("e", 2)]).apply_mode_map(bs)
    assert out.amplitude([Mode("c", 0), Mode("e", 2)]) == Amplitude.gauss(0, -1, 1)
    with pytest.raises(ValueError):
        splitter_map("a", "b", "c", "d").extended("a")


def test_debug_serialization():
    s = FockState.from_monomial([Mode("s", 0), Mode("u", 1)], Amplitude.gauss(1, 0, 4, phase=2))
    assert s.lines() == ["(1+0i)/2^(4/2) * phi^2 * a†[s,t0] a†[u,t1]"]
    assert str(FockState.zero()) == "0"
    assert FockState.vacuum().lines() == ["(1+0i)/2^(0/2) * phi^0 * 1"]


# -- the integer kernel against the reference walk ----------------------------

_small = st.integers(-4, 4)
_coef = st.tuples(_small, _small, st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 5))  # (p, q, r, s, h)
_amplitude = st.dictionaries(st.integers(-2, 2), _coef, min_size=1, max_size=2).map(Amplitude)
_mode = st.builds(Mode, st.sampled_from("abc"), st.integers(0, 2))
_monomial = st.lists(_mode, max_size=4).map(lambda ms: monomial(*ms))
_state = st.dictionaries(_monomial, _amplitude, max_size=4).map(FockState)
_entry = st.tuples(st.sampled_from("efgh"), st.integers(0, 2), _amplitude)
_map = st.fixed_dictionaries({sp: st.lists(_entry, max_size=3).map(tuple) for sp in "abc"}).map(ModeMap)


# more monomials of one photon number than one kernel pass takes, so that
# rows of one output come from different passes and are merged, or cancel
_one, _root = Amplitude.one(), Amplitude.gauss(1, 0, 1)
_phased = Amplitude({0: (1, 0, 0, 0, 0), 2: (0, -1, 1, 0, 1)})
_SHARED = ModeMap({
    "a": (("e", 0, _one), ("f", 1, Amplitude({1: (1, 1, 0, 0, 2)}))),
    "b": (("e", 0, _one), ("g", 1, Amplitude({0: (0, 0, -1, 0, 2), 1: (1, 0, 0, 0, 1)}))),
    "c": (("h", 0, Amplitude.gauss(0, 1, 1)), ("e", 2, Amplitude({0: (1, -2, 1, 1, 3), -1: (0, 1, 0, 0, 0)}))),
})


def _mon(text):
    """The monomial of "a0 b1 ..."."""
    return monomial(*(Mode(m[0], int(m[1:])) for m in text.split()))


def _many(*terms):
    """A state from ("a0 b1 ...", amplitude) pairs, its monomials in the order given."""
    return FockState({_mon(mon): amp for mon, amp in terms})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_state, _map)
# five two-photon monomials: e0 e0 of the first pass cancels in the second
@example(_many(("a0 a0", _one), ("a0 c0", _phased), ("a1 c1", _root), ("c0 c1", _one), ("b0 b0", -_one)), _SHARED)
# six one-photon monomials beside the vacuum and a three-photon term
@example(
    _many(
        ("a0", _one), ("a1", _phased), ("b0", -_one), ("", _root), ("a2", _root), ("b1", _one),
        ("c0", Amplitude.gauss(2, 1)), ("a0 b1 c2", _phased),
    ),
    _SHARED,
)
# seven three-photon monomials
@example(
    _many(
        ("a0 a0 b0", _one), ("a0 b0 b0", -_one), ("a0 c0 c1", _phased), ("b1 b1 b1", _root),
        ("a0 a0 a0", -_phased), ("b0 b0 b0", _one), ("a0 b0 c2", Amplitude.gauss(1, -1, 3)),
    ),
    _SHARED,
)
# eight two-photon monomials: two full passes
@example(
    _many(
        ("a0 b0", _one), ("a0 a0", _one), ("b0 b1", _phased), ("c0 c0", _root),
        ("b0 b0", -_one), ("a1 b1", -_phased), ("a0 c2", _one), ("a1 b0", _root),
    ),
    _SHARED,
)
def test_kernel_equals_reference_walk(reference_apply_mode_map, state, mm):
    # bunched inputs, mixed photon numbers, multi-phase numerators with r, s != 0,
    # mixed even and odd half-powers, the vacuum and the zero state all occur
    assert state.apply_mode_map(mm) == reference_apply_mode_map(state, mm)


def test_kernel_vacuum_and_zero_state():
    bs = splitter_map("a", "b", "c", "d")
    vac = FockState.vacuum().scaled(Amplitude({0: (1, 2, 3, -1, 3), 2: (0, 1, 0, 0, 0)}))
    assert vac.apply_mode_map(bs) == vac
    assert FockState.zero().apply_mode_map(bs) == FockState.zero()


@pytest.mark.parametrize("p", [2**70, 2**40], ids=["input-beyond-int64", "products-beyond-int64"])
def test_kernel_switches_to_python_ints(monkeypatch, reference_apply_mode_map, p):
    # 2**70 does not fit int64 at all; 2**40 does, but its products with the
    # 2**30 numerators of the map would overflow it
    big = 2**30
    mm = ModeMap({
        "a": (("c", 0, Amplitude.gauss(big + 1, 3, 1)), ("d", 1, Amplitude.gauss(-big, 1, 0, phase=1))),
        "b": (("c", 0, Amplitude.gauss(5, big, 1)), ("d", 0, Amplitude.gauss(1, -1, 2))),
    })
    photons = [Mode("a", 0), Mode("a", 0), Mode("b", 1)]
    state = FockState.from_monomial(photons, Amplitude.gauss(p + 1, -p, 3))
    dtypes = []
    merge = fock._merge
    monkeypatch.setattr(fock, "_merge", lambda *rows: dtypes.append(rows[3].dtype) or merge(*rows))
    assert state.apply_mode_map(mm) == reference_apply_mode_map(state, mm)
    assert object in dtypes


def test_kernel_equals_reference_on_w_states(reference_apply_mode_map, w_state_chains):
    net = w_analyzer()
    composed = net.composed_map
    for label, (staged, out) in enumerate(w_state_chains):
        assert staged[0] == encode_fock(w_state(label), INPUT_MODES), label
        assert out == reference_apply_mode_map(staged[0], composed), label
        for i, stage in enumerate(net.stages):
            assert staged[i + 1] == reference_apply_mode_map(staged[i], stage), (label, i)


def test_kernel_equals_reference_on_survivor_states(monkeypatch, reference_apply_mode_map):
    calls = []
    kernel = FockState.apply_mode_map

    def recorded(state, mm):
        out = kernel(state, mm)
        calls.append((state, mm, out))
        return out

    monkeypatch.setattr(FockState, "apply_mode_map", recorded)
    configs = sorted(set(protocol._SURVIVORS))
    x_configs = [c for c in configs if len(c) <= 3] + [((0, 1), (1, 0), (2, 0), (3, 1))]
    for basis, chosen in (("z", configs), ("x", x_configs)):
        for c in chosen:
            _survivor_state(c, basis)
    assert len(calls) == 81 + 66
    for state, mm, out in calls:
        assert out == reference_apply_mode_map(state, mm)


# -- the signed block sum against the reference walk ---------------------------

# a and b have one image, so a block of a0 cancels one of b0
_TWIN = ModeMap({
    "a": (("e", 0, _one), ("f", 1, _phased)),
    "b": (("e", 0, _one), ("f", 1, _phased)),
    "c": (("e", 0, _root), ("g", 0, Amplitude.gauss(0, 1, 1)), ("f", 2, Amplitude({1: (1, 0, 1, -1, 2)}))),
})


@pytest.mark.parametrize(
    "inputs, half",
    [
        ([[("a0 c0", -1)]], 0),
        ([[("a0 c0", 1), ("b0 c0", -1)], [("a0 a0", 1), ("c0 c1", -1)]], 0),
        ([[("a0 c0", 1), ("c0 c1", -1), ("a0 a0", 1), ("b0 c1", -1)], [("b0 c1", -1)]], 3),
    ],
    ids=["lone-block-negated", "one-input-cancels", "half-3"],
)
def test_block_sum_equals_reference_walk(reference_apply_mode_map, inputs, half):
    # each input's rows give the state that propagating its superposition of
    # amplitudes +-2**(-half/2) gives; an input that cancels leaves no rows
    inputs = [[(_mon(mon), sign) for mon, sign in terms] for terms in inputs]
    slots, rows = FockState(dict.fromkeys((m for terms in inputs for m, _ in terms), _one)).image_rows(_TWIN)
    src, codes, ks, nums, h = fock._block_sum(rows, inputs, half)
    for i, terms in enumerate(inputs):
        mine = FockState._from_rows(slots, [(None, codes[src == i], ks[src == i], nums[src == i], h)])
        want = reference_apply_mode_map(FockState({m: Amplitude.gauss(sign, 0, half) for m, sign in terms}), _TWIN)
        assert mine == want, i
        assert (src == i).any() == (not want.is_zero), i


@pytest.mark.parametrize(
    "big, dtype", [(2**62 - 1, np.int64), (2**62, object)], ids=["below-the-bound", "at-the-bound"]
)
def test_block_sum_switches_to_python_ints_at_the_bound(reference_apply_mode_map, big, dtype):
    # two int64 rows of magnitude big share a key: their sum fits int64 below 2**62, and not at it
    mm = ModeMap({"a": (("e", 0, _one),), "b": (("e", 0, _one),)})
    terms = [((Mode("a", 0),), 1), ((Mode("b", 0),), 1)]
    slots, rows = FockState(dict.fromkeys((m for m, _ in terms), _one)).image_rows(mm)
    rows = {m: (codes, ks, nums * big, h) for m, (codes, ks, nums, h) in rows.items()}
    assert all(block[2].dtype == np.int64 for block in rows.values())
    src, codes, ks, nums, h = fock._block_sum(rows, [terms], 0)
    assert nums.dtype == dtype
    want = reference_apply_mode_map(FockState({m: Amplitude.gauss(big * sign) for m, sign in terms}), mm)
    assert FockState._from_rows(slots, [(src, codes, ks, nums, h)]) == want
