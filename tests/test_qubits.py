import random
from fractions import Fraction

import pytest

from wqkd.amplitude import Amplitude
from wqkd.errors import DuplicateSpatialLabel, LengthMismatch
from wqkd.fock import Mode
from wqkd.qubits import (
    QubitState,
    bell_state,
    encode_fock,
    entanglement_swap,
    expand_in_w_basis,
    parse_w_label,
    w_state,
    x_basis_expansion,
)


def test_label_parsing():
    assert parse_w_label("c") == 12
    assert parse_w_label(5) == 5
    assert parse_w_label("W4_d".lower()) == 13
    with pytest.raises(ValueError):
        parse_w_label("g")
    with pytest.raises(ValueError):
        parse_w_label(16)


def test_w0_and_wc_kets():
    half = Amplitude.gauss(1, 0, 2)
    w0 = w_state(0)
    for ket in ("0001", "0010", "0100", "1000"):
        assert w0.amplitude(ket) == half
    wc = w_state("c")
    for ket in ("0111", "1011", "1101", "1110"):
        assert wc.amplitude(ket) == half


def test_catalog_orthonormality():
    for i in range(16):
        for j in range(16):
            want = Amplitude.one() if i == j else Amplitude.zero()
            assert w_state(i).inner(w_state(j)) == want


def test_bell_states():
    rt = Amplitude.gauss(1, 0, 1)
    psi = bell_state("psi+")
    assert psi.amplitude("01") == rt and psi.amplitude("10") == rt
    assert bell_state("phi+").inner(bell_state("phi-")) == Amplitude.zero()
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        assert bell_state(kind).norm_squared() == 1
    with pytest.raises(ValueError):
        bell_state("chi+")


def test_w0_bell_decomposition():
    half = Amplitude.gauss(1, 0, 2)
    phis = bell_state("phi+") + bell_state("phi-")
    rhs = (phis.tensor(bell_state("psi+")) + bell_state("psi+").tensor(phis)).scaled(half)
    assert rhs == w_state(0)


def test_apply_pauli_catalog_rules():
    assert w_state(0).apply_pauli("IZZI") == w_state(1)
    assert w_state(0).apply_pauli("ZIZI") == w_state(2)
    assert w_state(0).apply_pauli("ZZII") == w_state(3)
    assert w_state(0).apply_pauli("XXXX") == w_state("c")
    assert w_state(1).apply_pauli("XXXX") == w_state("d")
    # bit-flipping the remaining two picks up a global minus sign
    assert w_state(2).apply_pauli("XXXX") == w_state("e").scaled(-1)
    assert w_state(3).apply_pauli("XXXX") == w_state("f").scaled(-1)
    assert w_state(4).apply_pauli("ZIIZ") == w_state(5)
    assert w_state(4).apply_pauli("XXXX") == w_state(8)
    assert w_state(8).apply_pauli("IIZZ") == w_state(9)
    assert w_state(6).apply_pauli("-XXXX") == w_state("a")
    assert w_state(5).apply_pauli("-XXXX") == w_state("b")


def test_apply_pauli_identity_and_involution():
    rng = random.Random(3)
    for _ in range(20):
        label = rng.randrange(16)
        s = w_state(label)
        assert s.apply_pauli("IIII") == s
        ops = "".join(rng.choice("IXYZ") for _ in range(4))
        twice = s.apply_pauli(ops).apply_pauli(ops)
        assert twice == s or twice == s.scaled(-1)
        assert s.apply_pauli(ops).norm_squared() == 1


def test_apply_pauli_length_mismatch():
    with pytest.raises(LengthMismatch):
        w_state(0).apply_pauli("XX")


@pytest.mark.parametrize("ops", ["XQXX", "-XX-X", "xxxx"])
def test_apply_pauli_rejects_invalid_character(ops):
    with pytest.raises(ValueError, match="invalid Pauli string"):
        w_state(0).apply_pauli(ops)


def test_expand_in_w_basis_basis_states():
    half = Amplitude.gauss(1, 0, 2)
    coeffs = expand_in_w_basis(QubitState.basis("0001"))
    assert coeffs[:4] == [half] * 4
    assert all(c.is_zero for c in coeffs[4:])
    coeffs = expand_in_w_basis(QubitState.basis("1111"))
    assert coeffs[8:12] == [half, half, -half, -half]
    unit = expand_in_w_basis(w_state(5))
    assert unit[5] == Amplitude.one()
    assert all(c.is_zero for i, c in enumerate(unit) if i != 5)


def test_w_basis_round_trip_random_states():
    rng = random.Random(17)
    for _ in range(25):
        amps = {
            b: Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4), 2)
            for b in rng.sample(range(16), 5)
        }
        s = QubitState(4, amps)
        coeffs = expand_in_w_basis(s)
        recombined = QubitState(4)
        for i, c in enumerate(coeffs):
            recombined = recombined + w_state(i).scaled(c)
        assert recombined == s
        assert sum(c.abs2() for c in coeffs) == s.norm_squared()


def test_x_basis_expansion_vs_hadamard_signs():
    got = x_basis_expansion(w_state(0))
    assert got["++++"] == Amplitude.gauss(1, 0, 2)
    assert got["----"] == Amplitude.gauss(-1, 0, 2)
    assert "+-+-" not in got  # balanced strings carry zero weight
    plus = QubitState(4, {b: Amplitude.gauss(1, 0, 4) for b in range(16)})
    exp = x_basis_expansion(plus)
    assert exp == {"++++": Amplitude.one()}


def test_entanglement_swap_all_labels():
    total = Fraction(0)
    for label in range(16):
        residual, prob = entanglement_swap(label)
        assert residual == w_state(label)
        assert prob == Fraction(1, 16)
        total += prob
    assert total == 1


def test_encode_fock_z_and_x():
    rt = Amplitude.gauss(1, 0, 1)
    z0 = encode_fock(QubitState.basis("0"), "a")
    assert z0.amplitude([Mode("a", 0)]) == Amplitude.one()
    plus = QubitState(1, {0: rt, 1: rt})
    xp = encode_fock(plus, "a")
    assert xp.amplitude([Mode("a", 0)]) == rt
    assert xp.amplitude([Mode("a", 1)]) == rt
    assert xp.norm_squared() == 1

    w0 = encode_fock(w_state(0), "abcd")
    assert w0.n_terms == 4
    assert w0.amplitude([Mode("a", 0), Mode("b", 0), Mode("c", 0), Mode("d", 1)]) == Amplitude.gauss(1, 0, 2)
    assert w0.norm_squared() == 1


def test_encode_fock_preserves_inner_products():
    rng = random.Random(23)
    for _ in range(20):
        s1 = QubitState(2, {b: Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4), 2) for b in range(4)})
        s2 = QubitState(2, {b: Amplitude.gauss(rng.randrange(-3, 4), rng.randrange(-3, 4), 2) for b in range(4)})
        f1, f2 = encode_fock(s1, "ab"), encode_fock(s2, "ab")
        qubit_ip = s1.inner(s2)
        fock_ip = Amplitude.zero()
        for mon, amp in f2.terms():
            fock_ip = fock_ip + f1.amplitude(mon).conjugate() * amp
        assert fock_ip == qubit_ip


def test_encode_fock_duplicate_label():
    with pytest.raises(DuplicateSpatialLabel):
        encode_fock(w_state(0), "abca")
