import math
import random
from fractions import Fraction

from wqkd import protocol
from wqkd.amplitude import Amplitude
from wqkd.analyzer import (
    INPUT_MODES,
    REFERENCE_OVERALL,
    REFERENCE_SUCCESS,
    bell_analyzer,
    bell_success_rates,
    click_distribution,
    derive_detection_table,
    interferometer_map,
    parse_pattern,
    propagate_w_state,
    reference_table,
    render_pattern,
    splitter_map,
    w_analyzer,
)
from wqkd.fock import FockState, Mode
from wqkd.qubits import bell_state, encode_fock, w_state


def test_interferometer_map_matches_reference_form():
    mm = interferometer_map("a", "b", "e", "f")
    out = FockState.single(Mode("a", 0)).apply_mode_map(mm)
    assert out.amplitude([Mode("e", 0)]) == Amplitude.gauss(-1, 0, 2)
    assert out.amplitude([Mode("e", 1)]) == Amplitude.gauss(1, 0, 2, phase=1)
    assert out.amplitude([Mode("f", 0)]) == Amplitude.gauss(0, 1, 2)
    assert out.amplitude([Mode("f", 1)]) == Amplitude.gauss(0, 1, 2, phase=1)
    # time covariance: an input at t1 lands on bins t1, t2 with the same weights
    shifted = FockState.single(Mode("b", 1)).apply_mode_map(mm)
    assert shifted.amplitude([Mode("f", 1)]) == Amplitude.gauss(1, 0, 2)
    assert shifted.amplitude([Mode("f", 2)]) == Amplitude.gauss(-1, 0, 2, phase=1)
    assert mm.is_isometry()


def test_splitter_maps_reproduce_final_stage_forms():
    for in1, in2, o1, o2 in (("j", "k", "s", "u"), ("l", "m", "v", "w")):
        mm = splitter_map(in1, in2, o1, o2)
        out1 = FockState.single(Mode(in1, 0)).apply_mode_map(mm)
        assert out1.amplitude([Mode(o1, 0)]) == Amplitude.gauss(0, -1, 1)
        assert out1.amplitude([Mode(o2, 0)]) == Amplitude.gauss(1, 0, 1)
        out2 = FockState.single(Mode(in2, 0)).apply_mode_map(mm)
        assert out2.amplitude([Mode(o1, 0)]) == Amplitude.gauss(1, 0, 1)
        assert out2.amplitude([Mode(o2, 0)]) == Amplitude.gauss(0, -1, 1)
        assert mm.is_isometry()


def test_networks_are_exact_isometries():
    for net in (w_analyzer(), bell_analyzer()):
        assert all(stage.is_isometry() for stage in net.stages)
        assert net.composed_map().is_isometry()


def _staged_propagate(net, state):
    """The oracle: each stage's mode map applied in turn."""
    for stage in net.stages:
        state = state.apply_mode_map(stage)
    return state


def test_composed_propagation_equals_staged_oracle(x_superposition_outcomes):
    net = w_analyzer()
    for label in range(16):
        state = encode_fock(w_state(label), INPUT_MODES)
        assert net.propagate(state) == _staged_propagate(net, state), label
    # one survivor configuration per photon number; the Z states are the
    # survivors' own bins propagated stage by stage, and the X outcomes are
    # floats evaluated at a delay that must agree bit for bit with the
    # superposition oracle propagated stage by stage
    z_configs = (((0, 1),), ((0, 0), (2, 1)), ((0, 1), (1, 0), (3, 1)), ((0, 0), (1, 1), (2, 0), (3, 1)))
    for c in z_configs:
        photons = FockState.from_monomial(Mode(INPUT_MODES[p], z) for p, z in c)
        assert protocol._survivor_state(c, "z") == _staged_propagate(net, photons), c
    x_configs = (((1, 1),), ((0, 1), (1, 0)), ((0, 0), (1, 0), (2, 0)))
    delta = math.pi / 8
    staged_x = [x_superposition_outcomes(c, delta, lambda s: _staged_propagate(net, s)) for c in x_configs]
    assert [protocol._outcomes(c, delta) for c in x_configs] == staged_x


def test_default_table_is_memoized_until_a_fresh_derivation():
    memo = derive_detection_table()
    assert derive_detection_table() is memo
    fresh = derive_detection_table(cache=False)
    assert fresh is not memo and fresh == memo
    assert derive_detection_table() is fresh  # the fresh derivation is the memo now


def test_isometry_on_randomized_states():
    rng = random.Random(99)
    net = w_analyzer()
    one = Amplitude.one()
    for _ in range(60):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mon = tuple(
                sorted(
                    (Mode(rng.choice("abcd"), rng.randrange(2)) for _ in range(rng.randrange(1, 3))),
                    key=Mode.sort_key,
                )
            )
            terms[mon] = Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4), 2)
        state = FockState(terms)
        before = state.norm_amplitude()
        after = net.propagate(state).norm_amplitude()
        assert before == after
    assert net.propagate(FockState.single(Mode("a", 0))).norm_amplitude() == one


def test_w0_propagation_term_count_and_displayed_amplitudes():
    st = propagate_w_state(0)
    assert st.n_terms == 200
    assert st.norm_squared() == 1
    assert st.amplitude([Mode("s", 0), Mode("s", 1), Mode("s", 1), Mode("s", 1)]) == Amplitude.gauss(64, 0, 22, phase=2)
    assert st.amplitude([Mode("s", 0), Mode("u", 1), Mode("v", 0), Mode("w", 2)]) == Amplitude.gauss(128, 0, 22, phase=2)


def test_click_distribution_of_w0():
    st = propagate_w_state(0)
    dist = click_distribution(st)
    assert sum(dist.values()) == 1
    key = frozenset({Mode("s", 0), Mode("u", 1), Mode("v", 0), Mode("w", 2)})
    assert dist[key] == Fraction(1, 256)
    # this set identifies the sibling state only
    other = frozenset({Mode("s", 0), Mode("u", 1), Mode("v", 0), Mode("w", 3)})
    assert dist.get(other, Fraction(0)) == 0


def test_detection_table_matches_reference(table):
    ref = reference_table()
    assert dict(table.patterns) == dict(ref.patterns)
    assert dict(table.success_probability) == dict(REFERENCE_SUCCESS)
    assert table.overall == REFERENCE_OVERALL
    for label, pats in table.patterns.items():
        for pat, prob in zip(pats, table.pattern_probs[label]):
            assert prob == Fraction(1, 256)


def test_detection_table_disjoint_and_zero_leakage(table):
    seen = {}
    for label, pats in table.patterns.items():
        for pat in pats:
            assert pat not in seen
            seen[pat] = label
    outputs = {label: propagate_w_state(label) for label in range(16)}
    for pat, owner in seen.items():
        for label in range(16):
            amp = outputs[label].amplitude(pat)
            if label == owner:
                assert not amp.is_zero
            else:
                assert amp.is_zero


def test_uniform_weight_outputs_are_phase_pure(table):
    # states of uniform excitation weight give one phase power per monomial,
    # so every tabulated probability is independent of the delay phase
    for label in (0, 1, 2, 3, 12, 13, 14, 15):
        st = propagate_w_state(label)
        for _, amp in st.terms():
            assert len(amp.phase_powers()) == 1


def test_render_parse_roundtrip(table):
    for pats in table.patterns.values():
        for pat in pats:
            assert parse_pattern(render_pattern(pat)) == pat


def test_bell_rates():
    rates = bell_success_rates()
    assert rates["psi+"] == 1
    assert rates["psi-"] == Fraction(1, 2)
    assert rates["phi+"] == Fraction(1, 2)
    assert rates["phi-"] == 0
    # without the stabilized-phase collapse phi+ loses its identifying set
    generic = bell_success_rates(delta_zero=False)
    assert generic["psi+"] == 1 and generic["psi-"] == Fraction(1, 2)
    assert generic["phi+"] == 0 and generic["phi-"] == 0


def test_bell_psi_plus_has_eight_equal_coincidences():
    net = bell_analyzer()
    out = net.propagate(encode_fock(bell_state("psi+"), ("a", "b")))
    dist = click_distribution(out)
    pairs = {k: v for k, v in dist.items() if len(k) == 2}
    assert len(pairs) == 8
    assert all(v == Fraction(1, 8) for v in pairs.values())
    assert sum(dist.values()) == 1


def test_bell_phi_plus_contains_bunched_terms():
    net = bell_analyzer()
    out = net.propagate(encode_fock(bell_state("phi+"), ("a", "b")))
    assert any(len(set(mon)) == 1 for mon, _ in out.terms())
    assert out.norm_amplitude() == Amplitude.one()
