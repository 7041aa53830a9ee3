"""Exact (2,d) random access codes and a time-bin photonic Monte Carlo."""

from __future__ import annotations

__version__ = "0.1.0"

from .linalg import (
    Basis,
    Povm,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from .mub import (
    MubPair,
    fourier_mub_pair,
    pauli_mub_pair,
    product_mub_pair,
    unbiasedness_defect,
)
from .photonics import (
    ChannelModel,
    DetectorModel,
    DliModel,
    PulseTrain,
    SimulationConfig,
    SourceModel,
    TrialResult,
    ZClickDistribution,
    XClickDistribution,
    build_pulse_train,
    calibrate_raman_coefficient,
    expected_estimates,
    expected_p_x,
    expected_p_z,
    simulate_trial,
    x_click_distribution,
    z_click_distribution,
    DEFAULT_RAMAN_COEFFICIENT,
)
from .prbs import PrbsAlignmentError, PrbsSequence, prbs_align, prbs_generate
from .qrac import (
    AdvantageValue,
    AllocationValue,
    EncodingMap,
    MeasurementPair,
    Message,
    advantage,
    all_messages,
    allocation_figure,
    average_success_probability,
    classical_bound,
    coarse_grain,
    depolarize,
    empirical_advantage,
    encoding_table,
    max_success_probability,
    measurement_pair_from_mub,
    one_bit_success_probabilities,
    pvm_pair_compatible,
    quantum_bound,
    reduce_pair,
)
from .tolerances import TOL, Tolerances
