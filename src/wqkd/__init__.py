"""Exact linear-optics W-state analyzer and four-party MDI-QKD laboratory."""

from .amplitude import Amplitude
from .analyzer import (
    DetectionTable,
    OpticalNetwork,
    bell_analyzer,
    bell_success_rates,
    click_distribution,
    derive_detection_table,
    interferometer_map,
    reference_table,
    splitter_map,
    w_analyzer,
)
from .fock import FockState, Mode, ModeMap, mode, monomial
from .keyrate import (
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
    q1_identical,
    secure_distance,
    sweep,
    transmittance,
)
from .protocol import (
    EnumerationResult,
    Tally,
    TrialConfig,
    estimate,
    exact_enumerate,
    run_trials,
    survivor_coefficients,
)
from .qubits import (
    QubitState,
    bell_state,
    encode_fock,
    entanglement_swap,
    expand_in_w_basis,
    w_state,
    x_basis_expansion,
)

__version__ = "0.1.0"
