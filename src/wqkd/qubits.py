"""Exact n-qubit states: the 16-state W catalog, Bell states, basis changes.

Ket strings read left to right as qubit 1 (Alice) to qubit n, so basis index
bit (n-1-j) carries qubit j+1.  Amplitudes reuse the exact coefficient ring;
phase powers stay at zero throughout this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .amplitude import Amplitude, accumulate
from .errors import DuplicateSpatialLabel, LengthMismatch
from .fock import FockState, Mode, monomial

W_LABELS = "0123456789abcdef"

# The catalog groups by excitation span; the four sign rows repeat per group.
_GROUP_BASES = (
    ("0001", "0010", "0100", "1000"),
    ("0000", "1100", "1010", "1001"),
    ("0011", "0101", "0110", "1111"),
    ("0111", "1011", "1101", "1110"),
)
_SIGN_ROWS = ((1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1))


class QubitState:
    """Sparse exact state vector over n qubits."""

    __slots__ = ("n", "_amps")

    def __init__(self, n: int, amps: Mapping[int, Amplitude] | None = None):
        self.n = n
        self._amps = {b: a for b, a in (amps or {}).items() if not a.is_zero}

    @classmethod
    def basis(cls, ket: str) -> QubitState:
        return cls(len(ket), {int(ket, 2): Amplitude.one()})

    def amplitude(self, basis: int | str) -> Amplitude:
        if isinstance(basis, str):
            basis = int(basis, 2)
        return self._amps.get(basis, Amplitude.zero())

    def items(self):
        return sorted(self._amps.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QubitState):
            return NotImplemented
        return self.n == other.n and self._amps == other._amps

    def __add__(self, other: QubitState) -> QubitState:
        if self.n != other.n:
            raise LengthMismatch("qubit counts differ")
        out = dict(self._amps)
        for b, a in other._amps.items():
            accumulate(out, b, a)
        return QubitState(self.n, out)

    def scaled(self, amp: Amplitude | int) -> QubitState:
        if isinstance(amp, int):
            amp = Amplitude.gauss(amp)
        return QubitState(self.n, {b: a * amp for b, a in self._amps.items()})

    def tensor(self, other: QubitState) -> QubitState:
        out: dict[int, Amplitude] = {}
        for b1, a1 in self._amps.items():
            for b2, a2 in other._amps.items():
                out[(b1 << other.n) | b2] = a1 * a2
        return QubitState(self.n + other.n, out)

    def inner(self, other: QubitState) -> Amplitude:
        """<self|other>, exact."""
        if self.n != other.n:
            raise LengthMismatch("qubit counts differ")
        acc = Amplitude.zero()
        for b, a in self._amps.items():
            oa = other._amps.get(b)
            if oa is not None:
                acc = acc + a.conjugate() * oa
        return acc

    def norm_squared(self) -> Fraction:
        total = Fraction(0)
        for a in self._amps.values():
            total += a.abs2()
        return total

    def normalized(self) -> QubitState:
        """Rescale to unit norm; the norm must be a half-power of two."""
        n2 = self.norm_squared()
        if n2 == 0:
            raise ZeroDivisionError("cannot normalize the zero state")
        num, den = n2.numerator, n2.denominator
        if num & (num - 1) or den & (den - 1):
            raise ValueError(f"norm^2 {n2} is not a power of two")
        e = den.bit_length() - num.bit_length()  # norm^2 == 2**-e
        scale = _two_pow_half(e) if e >= 0 else Amplitude.gauss(1, 0, -e)
        return self.scaled(scale)

    def apply_pauli(self, ops: str) -> QubitState:
        """Apply a product of I/X/Y/Z factors, one per qubit; a leading '-' negates it."""
        ops = ops.strip()
        negate = ops.startswith("-")
        ops = ops.removeprefix("-")
        if any(c not in "IXYZ" for c in ops):
            raise ValueError(f"invalid Pauli string {ops!r}")
        if len(ops) != self.n:
            raise LengthMismatch(f"operator acts on {len(ops)} qubits, state has {self.n}")
        out: dict[int, Amplitude] = {}
        for b, a in self._amps.items():
            nb, na = b, a * Amplitude.gauss(-1) if negate else a
            for j, op in enumerate(ops):
                bitpos = self.n - 1 - j
                bit = (nb >> bitpos) & 1
                if op == "I":
                    continue
                if op == "X":
                    nb ^= 1 << bitpos
                elif op == "Z":
                    if bit:
                        na = na * Amplitude.gauss(-1)
                elif op == "Y":
                    # Y|0> = i|1>,  Y|1> = -i|0>
                    na = na * (Amplitude.gauss(0, 1) if bit == 0 else Amplitude.gauss(0, -1))
                    nb ^= 1 << bitpos
            accumulate(out, nb, na)
        return QubitState(self.n, out)

    def __str__(self) -> str:
        if not self._amps:
            return "0"
        parts = []
        for b, a in self.items():
            parts.append(f"{a} |{b:0{self.n}b}>")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QubitState<{self}>"


def _two_pow_half(e: int) -> Amplitude:
    """2**(e/2) as an exact Amplitude, e >= 0."""
    if e % 2 == 0:
        return Amplitude.gauss(1 << (e // 2))
    return Amplitude({0: (0, 0, 1 << ((e - 1) // 2), 0, 0)})


def parse_w_label(label: int | str) -> int:
    if isinstance(label, str):
        label = label.lower().removeprefix("w4,").removeprefix("w4_")
        if label in W_LABELS:
            return W_LABELS.index(label)
        raise ValueError(f"unknown W label {label!r}")
    if 0 <= label < 16:
        return label
    raise ValueError(f"W label index {label} out of range")


def w_state(label: int | str) -> QubitState:
    """One of the 16 orthonormal four-qubit W basis states."""
    idx = parse_w_label(label)
    kets = _GROUP_BASES[idx // 4]
    signs = _SIGN_ROWS[idx % 4]
    half = 2  # coefficient 1/2 = 2**(-2/2)
    return QubitState(4, {int(k, 2): Amplitude.gauss(sg, 0, half) for k, sg in zip(kets, signs)})


_BELL_KETS = {
    "phi+": (("00", 1), ("11", 1)),
    "phi-": (("00", 1), ("11", -1)),
    "psi+": (("01", 1), ("10", 1)),
    "psi-": (("01", 1), ("10", -1)),
}


def bell_state(kind: str) -> QubitState:
    try:
        kets = _BELL_KETS[kind]
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}") from None
    return QubitState(2, {int(k, 2): Amplitude.gauss(sg, 0, 1) for k, sg in kets})


def expand_in_w_basis(state: QubitState) -> list[Amplitude]:
    """Coefficients c_i with state = sum_i c_i |W4,i>."""
    if state.n != 4:
        raise LengthMismatch("the W basis spans four qubits")
    return [w_state(i).inner(state) for i in range(16)]


def x_basis_expansion(state: QubitState) -> dict[str, Amplitude]:
    """Exact coefficients over the |+/-> product basis, keys like '++-+'."""
    n = state.n
    out: dict[str, Amplitude] = {}
    for x in range(1 << n):
        acc = Amplitude.zero()
        for b, a in state._amps.items():
            sign = -1 if bin(b & x).count("1") % 2 else 1
            acc = acc + a * Amplitude.gauss(sign, 0, n)
        if not acc.is_zero:
            key = "".join("-" if (x >> (n - 1 - j)) & 1 else "+" for j in range(n))
            out[key] = acc
    return out


def entanglement_swap(label: int | str) -> tuple[QubitState, Fraction]:
    """Project the A'B'C'D' half of four shared phi+ pairs onto a W state.

    Returns the normalized residual ABCD state and the projection probability.
    """
    idx = parse_w_label(label)
    # |psi_S> = 1/4 sum_b |b>_ABCD |b>_A'B'C'D'
    quarter = Amplitude.gauss(1, 0, 4)
    system = QubitState(8, {(b << 4) | b: quarter for b in range(16)})
    target = w_state(idx)
    residual: dict[int, Amplitude] = {}
    for full, amp in system._amps.items():
        front, back = full >> 4, full & 0xF
        w_amp = target._amps.get(back)
        if w_amp is None:
            continue
        accumulate(residual, front, w_amp.conjugate() * amp)
    res = QubitState(4, residual)
    prob = res.norm_squared()
    return res.normalized(), prob


def catalog_lines() -> list[str]:
    """The 16 basis states as signed ket sums with exact fractions, one per line."""
    out = []
    for label in range(16):
        parts = []
        for b, amp in w_state(label).items():
            frac = amp.as_real_fraction()
            sign = "+" if frac > 0 else "-"
            parts.append(f"{sign}{abs(frac)}|{b:04b}>")
        out.append(f"W4_{W_LABELS[label]} = " + " ".join(parts))
    return out


def encode_fock(state: QubitState, spatial: Iterable[str]) -> FockState:
    """Time-bin encoding: qubit j's bit b becomes a photon at (spatial_j, t_b)."""
    labels = tuple(spatial)
    if len(set(labels)) != len(labels):
        raise DuplicateSpatialLabel(f"spatial labels must be distinct, got {labels}")
    if len(labels) != state.n:
        raise LengthMismatch("one spatial label per qubit is required")
    terms = {}
    for b, a in state._amps.items():
        modes = [Mode(labels[j], (b >> (state.n - 1 - j)) & 1) for j in range(state.n)]
        mon = monomial(*modes)
        terms[mon] = terms.get(mon, Amplitude.zero()) + a
    return FockState(terms)
