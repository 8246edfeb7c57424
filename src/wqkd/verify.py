"""Identity suites: the exact relations the package must reproduce.

Each suite returns (name, ok, detail).  The CLI prints one line per suite and
fails on any mismatch; the acceptance tests call the same functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .amplitude import Amplitude
from .analyzer import (
    REFERENCE_OVERALL,
    REFERENCE_SUCCESS,
    bell_analyzer,
    bell_success_rates,
    derive_detection_table,
    propagate_w_state,
    reference_table,
    w_analyzer,
)
from .fock import FockState, Mode
from .qubits import (
    bell_state,
    entanglement_swap,
    expand_in_w_basis,
    w_state,
    x_basis_expansion,
)

Suite = Callable[[], tuple[bool, str]]


def suite_orthonormality() -> tuple[bool, str]:
    for i in range(16):
        for j in range(16):
            want = Amplitude.one() if i == j else Amplitude.zero()
            if w_state(i).inner(w_state(j)) != want:
                return False, f"<W{i:x}|W{j:x}> wrong"
    return True, "256 inner products exact"


def suite_bell_decomposition() -> tuple[bool, str]:
    # W4,0 = [(phi+ + phi-) psi+ + psi+ (phi+ + phi-)] / 2: only three Bell
    # states appear; a psi- in the second factor would break the identity.
    half = Amplitude.gauss(1, 0, 2)
    phis = bell_state("phi+") + bell_state("phi-")
    rhs = (phis.tensor(bell_state("psi+")) + bell_state("psi+").tensor(phis)).scaled(half)
    if rhs != w_state(0):
        return False, "Bell decomposition of W4,0 failed"
    return True, "W4,0 Bell decomposition exact (psi+ in both factors)"


_X_GRID_W0 = {
    "++++": Fraction(1, 2), "+++-": Fraction(1, 4), "++-+": Fraction(1, 4),
    "+-++": Fraction(1, 4), "+---": Fraction(-1, 4), "-+++": Fraction(1, 4),
    "-+--": Fraction(-1, 4), "--+-": Fraction(-1, 4), "---+": Fraction(-1, 4),
    "----": Fraction(-1, 2),
}
_X_GRID_WC = {
    "++++": Fraction(1, 2), "+++-": Fraction(-1, 4), "++-+": Fraction(-1, 4),
    "+-++": Fraction(-1, 4), "+---": Fraction(1, 4), "-+++": Fraction(-1, 4),
    "-+--": Fraction(1, 4), "--+-": Fraction(1, 4), "---+": Fraction(1, 4),
    "----": Fraction(-1, 2),
}


def _amp_from_fraction(f: Fraction) -> Amplitude:
    num, den = f.numerator, f.denominator
    if den & (den - 1):
        raise ValueError("not dyadic")
    return Amplitude.gauss(num, 0, 2 * (den.bit_length() - 1))


def suite_x_basis() -> tuple[bool, str]:
    for label, grid in ((0, _X_GRID_W0), (12, _X_GRID_WC)):
        got = x_basis_expansion(w_state(label))
        want = {k: _amp_from_fraction(v) for k, v in grid.items()}
        if got != want:
            return False, f"X expansion of W{label:x} differs"
    return True, "W4,0 and W4,c Hadamard-basis grids exact"


# Basis-state expansions over the W catalog: (ket, first label of group, signs).
_W_EXPANSIONS = (
    ("0001", 0, (1, 1, 1, 1)), ("0010", 0, (1, -1, -1, 1)),
    ("0100", 0, (1, -1, 1, -1)), ("1000", 0, (1, 1, -1, -1)),
    ("0000", 4, (1, 1, 1, 1)), ("1100", 4, (1, -1, -1, 1)),
    ("1010", 4, (1, -1, 1, -1)), ("1001", 4, (1, 1, -1, -1)),
    ("0011", 8, (1, 1, 1, 1)), ("0101", 8, (1, -1, -1, 1)),
    ("0110", 8, (1, -1, 1, -1)), ("1111", 8, (1, 1, -1, -1)),
    ("0111", 12, (1, 1, 1, 1)), ("1011", 12, (1, -1, -1, 1)),
    ("1101", 12, (1, -1, 1, -1)), ("1110", 12, (1, 1, -1, -1)),
)


def suite_w_basis_expansions() -> tuple[bool, str]:
    from .qubits import QubitState

    half = Amplitude.gauss(1, 0, 2)
    for ket, base, signs in _W_EXPANSIONS:
        coeffs = expand_in_w_basis(QubitState.basis(ket))
        want = [Amplitude.zero()] * 16
        for off, sg in enumerate(signs):
            want[base + off] = half if sg > 0 else -half
        if coeffs != want:
            return False, f"expansion of |{ket}> differs"
    return True, "all 16 computational kets expand with the reference signs"


def suite_entanglement_swap() -> tuple[bool, str]:
    total = Fraction(0)
    for label in range(16):
        residual, prob = entanglement_swap(label)
        if residual != w_state(label):
            return False, f"residual for label {label:x} is not W4,{label:x}"
        if prob != Fraction(1, 16):
            return False, f"projection probability for label {label:x} is {prob}"
        total += prob
    if total != 1:
        return False, f"probabilities sum to {total}"
    return True, "all 16 projections give the matching W state at 1/16 each"


# (operator, source label, target label, exact global sign of the result)
_PAULI_RULES = (
    ("IZZI", 0, 1, 1), ("ZIZI", 0, 2, 1), ("ZZII", 0, 3, 1),
    ("XXXX", 0, 12, 1), ("XXXX", 1, 13, 1), ("XXXX", 2, 14, -1), ("XXXX", 3, 15, -1),
    ("ZIIZ", 4, 5, 1), ("ZIZI", 4, 6, 1), ("ZZII", 4, 7, 1),
    ("XXXX", 4, 8, 1), ("IIZZ", 8, 9, 1),
    ("-XXXX", 6, 10, 1), ("-XXXX", 5, 11, 1),
)


def suite_pauli_catalog() -> tuple[bool, str]:
    for op, src, dst, sign in _PAULI_RULES:
        got = w_state(src).apply_pauli(op)
        want = w_state(dst) if sign > 0 else w_state(dst).scaled(-1)
        if got != want:
            return False, f"{op} on W{src:x} does not give {'+' if sign > 0 else '-'}W{dst:x}"
    return True, "14 construction rules hold (XXXX on W2/W3 lands on -We/-Wf)"


def suite_isometries() -> tuple[bool, str]:
    for name, net in (("w", w_analyzer()), ("bell", bell_analyzer())):
        for i, stage in enumerate(net.stages):
            if not stage.is_isometry():
                return False, f"{name} analyzer stage {i + 1} is not an isometry"
        if not net.composed_map.is_isometry():
            return False, f"{name} analyzer composite is not an isometry"
    return True, "every stage and both composites are exact isometries"


_W0_OUTPUT_TERMS = (
    ((("s", 0), ("s", 1), ("s", 1), ("s", 1)), 64, 2),
    ((("s", 1), ("s", 2), ("w", 2), ("w", 2)), -192, 6),
    ((("s", 1), ("u", 1), ("u", 1), ("w", 1)), -64, 3),
    ((("s", 0), ("u", 1), ("v", 0), ("w", 2)), 128, 2),
    ((("s", 0), ("u", 1), ("v", 1), ("w", 1)), 128, 2),
    ((("s", 0), ("u", 2), ("v", 0), ("w", 1)), 128, 2),
    ((("v", 0), ("v", 1), ("w", 1), ("w", 3)), 128, 4),
    ((("v", 0), ("v", 2), ("w", 1), ("w", 2)), 128, 4),
)


def suite_w0_output() -> tuple[bool, str]:
    st = propagate_w_state(0)
    if st.n_terms != 200:
        return False, f"expected 200 monomials, found {st.n_terms}"
    if st.norm_squared() != 1:
        return False, "propagated W4,0 is not normalized"
    for modes, num, phase in _W0_OUTPUT_TERMS:
        want = Amplitude.gauss(num, 0, 22, phase=phase)  # denominator 2048
        got = st.amplitude(Mode(s, t) for s, t in modes)
        if got != want:
            return False, f"coefficient on {modes} is {got}"
    return True, "200 monomials; displayed coefficients match bit-exactly"


def suite_bell_rates() -> tuple[bool, str]:
    rates = bell_success_rates()
    want = {"psi+": Fraction(1), "psi-": Fraction(1, 2), "phi+": Fraction(1, 2), "phi-": Fraction(0)}
    if rates != want:
        return False, f"rates {rates} differ from 1, 1/2, 1/2, 0"
    return True, "psi+ 1, psi- 1/2, phi+ 1/2, phi- 0 at the delta=0 operating point"


# Single-photon image of a@t0: slot -> (gaussian pair, phase), units 2**(-3/2).
_ONE_PHOTON_TERMS = {
    ("s", 0): (-1, 0, 0), ("s", 1): (-1, 0, 1),
    ("u", 1): (0, 1, 1), ("u", 2): (0, 1, 2),
    ("v", 0): (0, -1, 0), ("v", 1): (0, 1, 1),
    ("w", 1): (-1, 0, 1), ("w", 2): (1, 0, 2),
}

# Two-photon image of a@t0 b@t0: monomial -> (coeff*32, phase).
_TWO_PHOTON_TERMS = {
    (("u", 2), ("u", 2)): (0, -4, 4), (("u", 2), ("w", 2)): (-8, 0, 4),
    (("w", 2), ("w", 2)): (0, 4, 4),
    (("s", 1), ("u", 2)): (8, 0, 3), (("s", 1), ("w", 2)): (0, -8, 3),
    (("u", 2), ("v", 1)): (0, -8, 3), (("v", 1), ("w", 2)): (-8, 0, 3),
    (("s", 1), ("s", 1)): (0, 4, 2), (("s", 1), ("v", 1)): (8, 0, 2),
    (("u", 1), ("u", 1)): (0, 4, 2), (("u", 1), ("w", 1)): (-8, 0, 2),
    (("v", 1), ("v", 1)): (0, -4, 2), (("w", 1), ("w", 1)): (0, -4, 2),
    (("s", 0), ("u", 1)): (-8, 0, 1), (("s", 0), ("w", 1)): (0, -8, 1),
    (("u", 1), ("v", 0)): (0, -8, 1), (("v", 0), ("w", 1)): (8, 0, 1),
    (("s", 0), ("s", 0)): (0, -4, 0), (("s", 0), ("v", 0)): (8, 0, 0),
    (("v", 0), ("v", 0)): (0, 4, 0),
}

# Displayed terms of the three-photon image of a@t0 b@t0 c@t0, units 2**(-15/2).
_THREE_PHOTON_TERMS = {
    (("u", 2), ("u", 2), ("u", 2)): (8, 0, 6),
    (("u", 2), ("u", 2), ("w", 2)): (0, -8, 6),
    (("u", 2), ("w", 2), ("w", 2)): (8, 0, 6),
    (("w", 2), ("w", 2), ("w", 2)): (0, -8, 6),
    (("s", 1), ("u", 2), ("u", 2)): (0, 8, 5),
    (("s", 1), ("u", 2), ("w", 2)): (-16, 0, 5),
    (("s", 1), ("w", 2), ("w", 2)): (0, 24, 5),
    (("v", 0), ("v", 0), ("w", 1)): (0, 8, 1),
    (("s", 0), ("s", 0), ("s", 0)): (0, 8, 0),
    (("s", 0), ("s", 0), ("v", 0)): (-8, 0, 0),
    (("s", 0), ("v", 0), ("v", 0)): (0, 8, 0),
    (("v", 0), ("v", 0), ("v", 0)): (-8, 0, 0),
}


def suite_photon_anchors() -> tuple[bool, str]:
    net = w_analyzer()
    one = net.propagate(FockState.single(Mode("a", 0)))
    if one.n_terms != 8:
        return False, "single-photon image should populate 8 slots"
    for (sp, t), (p, q, phase) in _ONE_PHOTON_TERMS.items():
        if one.amplitude([Mode(sp, t)]) != Amplitude.gauss(p, q, 3, phase=phase):
            return False, f"single-photon coefficient on {sp}{t} differs"
    shifted = net.propagate(FockState.single(Mode("a", 1)))
    for (sp, t), (p, q, phase) in _ONE_PHOTON_TERMS.items():
        if shifted.amplitude([Mode(sp, t + 1)]) != Amplitude.gauss(p, q, 3, phase=phase):
            return False, f"shifted single-photon coefficient on {sp}{t + 1} differs"
    two = net.propagate(FockState.from_monomial([Mode("a", 0), Mode("b", 0)]))
    if two.n_terms != len(_TWO_PHOTON_TERMS):
        return False, f"two-photon image has {two.n_terms} terms, expected {len(_TWO_PHOTON_TERMS)}"
    for modes, (p, q, phase) in _TWO_PHOTON_TERMS.items():
        want = Amplitude.gauss(p, q, 10, phase=phase)  # 1/32
        if two.amplitude(Mode(s, t) for s, t in modes) != want:
            return False, f"two-photon coefficient on {modes} differs"
    three = net.propagate(FockState.from_monomial([Mode("a", 0), Mode("b", 0), Mode("c", 0)]))
    for modes, (p, q, phase) in _THREE_PHOTON_TERMS.items():
        want = Amplitude.gauss(p, q, 15, phase=phase)
        if three.amplitude(Mode(s, t) for s, t in modes) != want:
            return False, f"three-photon coefficient on {modes} differs"
    return True, "one-, two- and three-photon evolutions match the reference terms"


def suite_detection_table() -> tuple[bool, str]:
    tab = derive_detection_table()
    pub = reference_table()
    if dict(tab.patterns) != dict(pub.patterns):
        return False, "derived unique patterns differ from the reference table"
    if dict(tab.success_probability) != dict(REFERENCE_SUCCESS):
        return False, "success probabilities differ"
    if tab.overall != REFERENCE_OVERALL:
        return False, f"overall probability {tab.overall} != {REFERENCE_OVERALL}"
    return True, "12+4+12+4 unique patterns, 3/64 and 1/64 success, D_p = 1/128"


ALL_SUITES: tuple[tuple[str, Suite], ...] = (
    ("w-catalog-orthonormality", suite_orthonormality),
    ("bell-decomposition", suite_bell_decomposition),
    ("x-basis-expansions", suite_x_basis),
    ("w-basis-expansions", suite_w_basis_expansions),
    ("entanglement-swap", suite_entanglement_swap),
    ("pauli-catalog", suite_pauli_catalog),
    ("network-isometries", suite_isometries),
    ("w0-output-expansion", suite_w0_output),
    ("bell-analyzer-rates", suite_bell_rates),
    ("photon-evolution-anchors", suite_photon_anchors),
    ("detection-table", suite_detection_table),
)


def run_all() -> list[tuple[str, bool, str]]:
    return [(name, *fn()) for name, fn in ALL_SUITES]
