"""Geometric inertial-navigation observer on SE_5(3).

Position, velocity, and attitude estimation from an IMU plus generic
body-frame / inertial-frame outputs, with Riccati-tuned gains, a truth and
sensor simulator, and observability analysis tooling.
"""

from types import ModuleType as _ModuleType

from .frontend import UnifiedLayout
from .lie import SEn, hat, project_rotation, rotation_angle, so3_exp
from .observability import GramianReport
from .observer import (
    DivergenceError,
    ErrorReport,
    ObserverConfig,
    ObserverState,
    error_arrays,
)
from .scenario import (
    ConfigError,
    RunSummary,
    ScenarioConfig,
    bundled_config_path,
    check_gps_pe,
    check_observability,
    estimate_from_errors,
    parse_scenario,
    run_observer,
    run_scenario,
    sweep_agas,
)
from .sensors import ChannelKind, ChannelSampler, ChannelSpec, corrupt_imu, value_from_pose
from .trajectory import (
    TrajectorySpec,
    TruthRun,
    TruthState,
    coupled_truth,
    eval_omega,
    eval_trajectory,
    simulate_truth,
    truth_attitude,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
