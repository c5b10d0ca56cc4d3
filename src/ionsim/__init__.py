"""Numerical simulator of a reliable trapped-ion teleportation protocol.

Builds the dispersive two-ion sideband dynamics over truncated Fock spaces,
prepares Bell channels from thermal motional states, runs the analyzer /
measurement / correction pipeline, and estimates fidelities.
"""

from .linalg import fidelity, mat_exp, partial_trace, projector, tensor
from .motional import (
    ModeParams,
    ThermalSpec,
    coupling_factor,
    cutoff_for,
    default_eta_r,
    laguerre,
    matched_nbar_r,
    rabi_frequency,
    thermal_distribution,
)
from .dynamics import (
    PulseSpec,
    build_heff,
    build_ld_hamiltonian,
    carrier_rotation,
    oracle_evolve,
    sector_evolve,
    sector_unitary,
)
from .protocol import (
    BELL_STATES,
    CARDINAL_STATES,
    FidelityReport,
    InputQubit,
    PhaseConfig,
    TeleportConfig,
    analyzer_pulse,
    channel_fidelity,
    channel_fidelity_pipeline,
    channel_target_state,
    correct_ion3,
    entanglement_swap,
    entanglement_teleport,
    measure_and_condition,
    prepare_channel,
    teleport_fidelity,
)
from .pulsescript import PulseScript, ScriptError, execute_script, parse_pulse_script

__version__ = "0.1.0"

__all__ = [
    "BELL_STATES",
    "CARDINAL_STATES",
    "FidelityReport",
    "InputQubit",
    "ModeParams",
    "PhaseConfig",
    "PulseScript",
    "PulseSpec",
    "ScriptError",
    "TeleportConfig",
    "ThermalSpec",
    "analyzer_pulse",
    "build_heff",
    "build_ld_hamiltonian",
    "carrier_rotation",
    "channel_fidelity",
    "channel_fidelity_pipeline",
    "channel_target_state",
    "correct_ion3",
    "coupling_factor",
    "cutoff_for",
    "default_eta_r",
    "entanglement_swap",
    "entanglement_teleport",
    "execute_script",
    "fidelity",
    "laguerre",
    "mat_exp",
    "matched_nbar_r",
    "measure_and_condition",
    "oracle_evolve",
    "parse_pulse_script",
    "partial_trace",
    "prepare_channel",
    "projector",
    "rabi_frequency",
    "sector_evolve",
    "sector_unitary",
    "teleport_fidelity",
    "tensor",
    "thermal_distribution",
]
