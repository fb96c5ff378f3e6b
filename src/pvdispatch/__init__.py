"""PV forecasting and economic dispatch toolkit."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    DarkHourMask,
    DataError,
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
)
from .dispatch import (  # noqa: F401
    DispatchCase,
    EvaluationReport,
    GeneratorSpec,
    default_fleet,
)
from .lp import LinearProgram, LpSolution, LpStatus  # noqa: F401
from .lstm import NetworkConfig, NetworkParameters, TrainingConfig  # noqa: F401
