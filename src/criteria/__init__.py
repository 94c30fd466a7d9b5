"""Map-aware benchmarking for multimodal vehicle trajectory prediction.

Accuracy (minADE/minFDE/RF), bias-free diversity (angular expansion,
magnitude variation), map admissibility (triad test, DAC, DAO), scenario
categorization, and cross-model ranking/reporting.
"""

from .bench import (
    EvaluationRun,
    MetricReport,
    WeightConfig,
    aggregate,
    balance_data,
    evaluate_model,
    rank,
)
from .io import RunConfig
from .map_model import LaneSegment, RoadMap, Turn, is_turn_lane
from .metrics import AlignmentConfig, AngleUnit, DaoConfig, Reduction, TriadResult, att
from .scenario import (
    Difficulty,
    LengthClass,
    ScenarioConfig,
    ScenarioRecord,
    ScenarioTag,
    Structure,
    partition_difficulty,
    tag_all,
)
from .trajectory import KinematicConfig, PredictionSet, Trajectory

__version__ = "0.1.0"
