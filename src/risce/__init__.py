"""Structured compressive-sensing cascaded channel estimation for reflector-aided uplinks."""

from .channel import ChannelRealization, generate_channels
from .config import DEFAULT_ESTIMATORS, ArrayGeometry, SystemConfig
from .estimators import (
    EstimateReport,
    EstimatorInput,
    coarse_omp,
    estimate_common_offsets,
    estimate_conventional_omp,
    estimate_oracle_ls,
    estimate_row_structured,
    estimate_triple_structured,
    joint_column_support,
    offset_structured_somp,
)
from .harness import (
    ESTIMATORS,
    NMSE_FLOOR_DB,
    SweepResult,
    TrialResult,
    emit_results,
    nmse_linear,
    run_sweep,
    run_trial,
)
from .numerics import (
    circ_xcorr_1d,
    circ_xcorr_2d,
    ls_solve,
    signed_shift,
    top_l_indices,
)
from .sensing import (
    GroundTruth,
    MeasurementSet,
    SensingSetup,
    StructureViolation,
    extract_ground_truth,
    generate_phase_schedule,
    make_sensing_setup,
    shift_indices,
    simulate_measurements,
)

__version__ = "0.1.0"
