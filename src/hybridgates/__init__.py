"""Event-driven dynamic timing simulation for circuits of digitized hybrid gates.

A digitized hybrid gate has analog internals that follow one ODE per discrete
mode, selected by delayed digital inputs; its output is the thresholded first
state component.  This package provides the signal algebra, mode-family ODE
solving, threshold digitization, a gate library, a deterministic circuit
executor with causal-depth tracking, k-unrollings, and pulse-filtration
experiments, plus a small CLI.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    EquivalenceReport,
    EventCapExceeded,
    Execution,
    InputPort,
    InvalidCircuitError,
    OutputPort,
    SpfReport,
    SpfWidthResult,
    TransitionRecord,
    UnrolledCircuit,
    ValidationReport,
    bisect_pulse_norm,
    check_simulation_equivalence,
    check_spf,
    execute,
    random_boolean_circuit,
    reach_times,
    shuffled_copy,
    unroll,
    validate,
)
from .gates import (
    AdvancedNorParams,
    GateRun,
    GateSpec,
    IdmDelayMeasurement,
    SimpleNorParams,
    boolean_table,
    gate_output,
    initial_output_bit,
    make_advanced_nor,
    make_boolean_gate,
    make_const_gate,
    make_heater_plant,
    make_idm_channel,
    make_simple_nor,
    measure_idm_delays,
    mis_delay_sweep,
)
from .modes import (
    ModeFunction,
    StateSpace,
    StateSpaceExit,
    Trajectory,
    affine_mode,
    matching_output_signal,
    solve_mode,
    sup_distance,
    write_trajectory_csv,
)
from .signals import (
    TIME_EPS,
    BinarySignal,
    ModeSwitchSignal,
    Transition,
    delay,
    min_pulse_width,
    mode_distance,
    one_norm_distance,
    read_signal_csv,
    write_signal_csv,
)
from .threshold import ThresholdSpec, digitize, find_crossings

__all__ = [
    "__version__",
    # signals
    "TIME_EPS",
    "BinarySignal",
    "ModeSwitchSignal",
    "Transition",
    "delay",
    "min_pulse_width",
    "mode_distance",
    "one_norm_distance",
    "read_signal_csv",
    "write_signal_csv",
    # modes
    "ModeFunction",
    "StateSpace",
    "StateSpaceExit",
    "Trajectory",
    "affine_mode",
    "matching_output_signal",
    "solve_mode",
    "sup_distance",
    "write_trajectory_csv",
    # threshold
    "ThresholdSpec",
    "digitize",
    "find_crossings",
    # gates
    "AdvancedNorParams",
    "GateRun",
    "GateSpec",
    "IdmDelayMeasurement",
    "SimpleNorParams",
    "boolean_table",
    "gate_output",
    "initial_output_bit",
    "make_advanced_nor",
    "make_boolean_gate",
    "make_const_gate",
    "make_heater_plant",
    "make_idm_channel",
    "make_simple_nor",
    "measure_idm_delays",
    "mis_delay_sweep",
    # circuit
    "Circuit",
    "EquivalenceReport",
    "EventCapExceeded",
    "Execution",
    "InputPort",
    "InvalidCircuitError",
    "OutputPort",
    "SpfReport",
    "SpfWidthResult",
    "TransitionRecord",
    "UnrolledCircuit",
    "ValidationReport",
    "bisect_pulse_norm",
    "check_simulation_equivalence",
    "check_spf",
    "execute",
    "random_boolean_circuit",
    "reach_times",
    "shuffled_copy",
    "unroll",
    "validate",
]
