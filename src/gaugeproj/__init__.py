"""Gauge-function cover costs, nested-disc constructions and projection sweeps."""

from .gauges import (GaugeFunction, GaugeError, GaugeFitError, power,
                     log_power, power_log, tabulated, parse_gauge, log_ratio,
                     log_radius_grid, doubling_exponent, codoubling_exponent,
                     doubling_constant, doubling_roundtrip_violations)
from .conditions import (ConditionVerdict, FINITE, DIVERGENT, INCONCLUSIVE,
                         check_integral_condition, check_limit_condition,
                         check_rate_condition, check_length_criterion,
                         check_divergence_of_df_over_g, classify_log_tail)
from .hierarchy import (RadiusSchedule, BranchingPlan, DiscHierarchy,
                        DiscCapExceeded, ScheduleError, BranchingError,
                        raw_log_radii, derive_radius_schedule,
                        choose_branching, build_hierarchy, build_from_gauge,
                        validate_hierarchy)
from .measure import (NaturalMeasure, FrostmanScan, EnergyEstimate,
                      ball_mass, ball_masses, frostman_scan, discrete_energy,
                      mc_energy, mc_energy_atoms, potential)
from .projection import (IntervalCover, LevelProjection, SweepTable,
                         AveragedProjection, LogDimensionEstimate,
                         merge_intervals, project_disc_cover, cover_cost,
                         project_hierarchy, eq35_bound, qualifying_levels,
                         sweep_directions, angle_kernel_integral,
                         averaged_projected_energy, estimate_log_dimension)
from .diophantine import (ApproxFunction, SeriesVerdict, RegimeReport,
                          exp_power, power_log_power, parse_approx,
                          classify_series, gap_report, ZERO_BAND, GAP_BAND,
                          INFINITE_BAND)
from .config import RunConfig, ConfigError, parse_config, SCHEMA_VERSION
from .pipeline import PipelineResult, run_pipeline, sweep_partner

__version__ = "0.1.0"
