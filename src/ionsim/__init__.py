"""Numerical simulator of a reliable trapped-ion teleportation protocol.

Builds the dispersive two-ion sideband dynamics over truncated Fock spaces,
prepares Bell channels from thermal motional states, runs the analyzer /
measurement / correction pipeline, and estimates fidelities.
"""

from .linalg import fidelity, projector
from .motional import (
    ModeParams,
    ThermalSpec,
    cutoff_for,
    default_eta_r,
    matched_nbar_r,
    thermal_distribution,
)
from .dynamics import PulseSpec, carrier_rotation
from .protocol import (
    BELL_STATES,
    CARDINAL_STATES,
    FidelityReport,
    InputQubit,
    PhaseConfig,
    TeleportConfig,
    channel_fidelity,
    channel_target_state,
    entanglement_swap,
    entanglement_teleport,
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
    "carrier_rotation",
    "channel_fidelity",
    "channel_target_state",
    "cutoff_for",
    "default_eta_r",
    "entanglement_swap",
    "entanglement_teleport",
    "execute_script",
    "fidelity",
    "matched_nbar_r",
    "parse_pulse_script",
    "projector",
    "teleport_fidelity",
    "thermal_distribution",
]
