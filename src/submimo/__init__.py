"""Sub-Nyquist collocated MIMO radar toolkit.

Synthesizes FDM multi-transmitter echoes from sparse scenes, acquires them
with a coset-subsampling software receiver, and recovers target range and
azimuth by simultaneous matrix orthogonal matching pursuit.
"""

from .errors import ConfigError, NumericalError, RadarError, ValidationError
from .geometry import (ArrayConfig, ArrayMode, AzimuthGrid, azimuth_grid,
                       build_mode, virtual_positions)
from .harness import (DetectionReport, Environment, ExperimentConfig,
                      MetricsRecord, ReductionSummary, SceneSpec,
                      assemble_environment, build_environment, emit_ppi,
                      generate_scene, match_targets, run_experiment,
                      run_trial, sampling_reduction)
from .recovery import (DictionarySet, RangeGrid, SparseEstimate,
                       build_dictionaries, coherence, matrix_omp)
from .scene import (SPEED_OF_LIGHT, ReceivedBaseband, Scene, Target,
                    add_noise, oracle_coefficients, synth_received,
                    target_from_range)
from .waveform import (BasebandPulse, CognitivePlan, FdmPlan, Subband,
                       build_cognitive_plan, build_fdm_plan, channel_spectrum,
                       conventional_plan, pulse_energy, reference_subbands,
                       spectral_power, synth_pulse)
from .xampler import (AdcConfig, BinSet, CoefficientSet, acquire, check_coset,
                      subband_bins)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
