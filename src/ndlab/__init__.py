"""Exact analysis of duty-cycled neighbor-discovery schedules.

Models beacon/reception schedules on an integer tick grid, verifies
determinism through coverage maps, computes exact worst-case discovery
latencies by brute-force sweep, evaluates closed-form latency bounds and
simulates multi-device beacon collisions.
"""

from .coverage import (
    UNBOUNDED,
    CoverageMap,
    DeterminismReport,
    analyze,
    build_coverage_map,
    check_correlated_quadruple,
    worst_case_latency_oracle,
)
from .errors import (
    DomainError,
    HyperperiodTooLarge,
    InfeasibleError,
    MisalignedPeriods,
    NeedsFinerTicks,
)
from .schedule import (
    BeaconSchedule,
    ProtocolSpec,
    RadioModel,
    ReceptionSchedule,
    ReceptionWindow,
    Semantics,
    TimeBase,
    effective_rates,
    load_protocol,
    protocol_from_json,
    protocol_to_json,
    reception_duty_cycle,
    save_protocol,
    total_duty_cycle,
    transmission_duty_cycle,
)
from .simulator import (
    OffsetSampling,
    SimConfig,
    SimOutcome,
    exhaustive_pair_worst_case,
    measured_blocked_fraction,
    self_blocking_probability,
    simulate_multi,
    simulate_pair,
)

__all__ = [
    "BeaconSchedule",
    "CoverageMap",
    "DeterminismReport",
    "DomainError",
    "HyperperiodTooLarge",
    "InfeasibleError",
    "MisalignedPeriods",
    "NeedsFinerTicks",
    "OffsetSampling",
    "ProtocolSpec",
    "RadioModel",
    "ReceptionSchedule",
    "ReceptionWindow",
    "Semantics",
    "SimConfig",
    "SimOutcome",
    "TimeBase",
    "UNBOUNDED",
    "analyze",
    "build_coverage_map",
    "check_correlated_quadruple",
    "effective_rates",
    "exhaustive_pair_worst_case",
    "load_protocol",
    "measured_blocked_fraction",
    "protocol_from_json",
    "protocol_to_json",
    "reception_duty_cycle",
    "save_protocol",
    "self_blocking_probability",
    "simulate_multi",
    "simulate_pair",
    "total_duty_cycle",
    "transmission_duty_cycle",
    "worst_case_latency_oracle",
]
