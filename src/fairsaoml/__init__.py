"""Strongly adaptive fairness-constrained online meta-learning engine."""

from .engine import AblationFlags, RoundRecord, RunConfig, SplitSizes, run
from .intervals import IntervalScheme, target_set
from .model_core import FairnessSpec, LossSpec, ParamPair, TaskBatch
from .stream import CsvSchema, EnvSpec, StreamSpec, generate_stream, load_csv, save_csv

__all__ = [
    "AblationFlags", "CsvSchema", "EnvSpec", "FairnessSpec", "IntervalScheme",
    "LossSpec", "ParamPair", "RoundRecord", "RunConfig", "SplitSizes",
    "StreamSpec", "TaskBatch", "generate_stream", "load_csv", "run", "save_csv",
    "target_set",
]

__version__ = "0.1.0"
