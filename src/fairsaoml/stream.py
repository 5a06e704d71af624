"""Synthetic drifting task streams and the CSV ingestion path."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, IngestionError
from .model_core import TaskBatch

MAX_BATCH_RETRIES = 100
FLOAT_FORMAT = "%.17g"  # round-trips every float64; also used for rounds.csv


@dataclass(frozen=True)
class EnvSpec:
    n_tasks: int
    dim: int
    boundary: tuple  # true separator, length dim
    group_bias: float = 0.0
    group_balance: float = 0.5
    noise: float = 0.0

    def __post_init__(self):
        if len(self.boundary) != self.dim:
            raise ConfigurationError("boundary length must equal dim")
        if not (0.0 < self.group_balance < 1.0):
            raise ConfigurationError("group_balance must be in (0, 1)")
        if not (0.0 <= self.noise < 0.5):
            raise ConfigurationError("noise must be in [0, 0.5)")
        if self.n_tasks < 1:
            raise ConfigurationError("n_tasks must be >= 1")


@dataclass(frozen=True)
class StreamSpec:
    environments: tuple  # of EnvSpec
    batch_size: int
    seed: int = 0

    def __post_init__(self):
        if not self.environments:
            raise ConfigurationError("at least one environment required")
        dims = {env.dim for env in self.environments}
        if len(dims) != 1:
            raise ConfigurationError("all environments must share the feature dimension")
        if self.batch_size < 4:
            raise ConfigurationError("batch_size too small")


def _draw_batch(rng: np.random.Generator, env: EnvSpec, batch_size: int,
                round_index: int) -> TaskBatch:
    boundary = np.asarray(env.boundary, dtype=float)
    for _ in range(MAX_BATCH_RETRIES):
        x = rng.standard_normal((batch_size, env.dim))
        s = np.where(rng.random(batch_size) < env.group_balance, 1, -1)
        score = x @ boundary + env.group_bias * (s == 1)
        y = np.where(score >= 0.0, 1, -1)
        if env.noise > 0.0:
            flip = rng.random(batch_size) < env.noise
            y = np.where(flip, -y, y)
        if len(np.unique(s)) == 2 and len(np.unique(y)) == 2:
            return TaskBatch(x, y, s, round=round_index)
    raise DegenerateInputError(
        "could not draw a batch with both groups and both classes present")


def generate_stream(spec: StreamSpec) -> List[TaskBatch]:
    rng = np.random.default_rng(spec.seed)
    out: List[TaskBatch] = []
    t = 0
    for env in spec.environments:
        for _ in range(env.n_tasks):
            t += 1
            out.append(_draw_batch(rng, env, spec.batch_size, t))
    return out


@dataclass(frozen=True)
class CsvSchema:
    feature_columns: tuple
    protected_column: str = "s"
    label_column: str = "y"
    round_column: Optional[str] = "t"
    batch_size: Optional[int] = None  # used when round_column is None
    mapping: Optional[Dict[str, int]] = None  # raw value -> {-1, +1}

    def __post_init__(self):
        if self.round_column is None and self.batch_size is None:
            raise ConfigurationError("a CSV without a round column needs a batch_size")

    def map_value(self, raw: str, row_no: int, column: str) -> int:
        table = self.mapping or {"-1": -1, "1": 1, "+1": 1}
        if raw not in table:
            raise IngestionError(f"row {row_no}: unmappable value {raw!r} in column {column}")
        v = table[raw]
        if v not in (-1, 1):
            raise IngestionError(f"schema maps {raw!r} to {v}, expected -1 or +1")
        return v


def save_csv(stream: Sequence[TaskBatch], path: str) -> None:
    """Features f0.., then s, y and t, comma-separated with CRLF line ends."""
    dim = stream[0].dim
    row = ",".join([FLOAT_FORMAT] * dim + ["%d"] * 3) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(dim)] + ["s", "y", "t"]) + "\r\n")
        for batch in stream:
            t = int(batch.round)
            fh.writelines(row % (*f, s, y, t) for f, s, y in zip(
                batch.features.tolist(), batch.protected.tolist(), batch.labels.tolist()))


def load_csv(path: str, schema: CsvSchema) -> List[TaskBatch]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file: header row required")
        col_index = {name: i for i, name in enumerate(header)}
        needed = list(schema.feature_columns) + [schema.protected_column, schema.label_column]
        if schema.round_column is not None:
            needed.append(schema.round_column)
        for name in needed:
            if name not in col_index:
                raise IngestionError(f"missing column {name!r}")
        rounds, feats, ys, ss, seen = [], [], [], [], set()
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(f"row {row_no}: ragged row")
            try:
                feats.append([float(row[col_index[c]]) for c in schema.feature_columns])
            except ValueError:
                raise IngestionError(f"row {row_no}: non-numeric feature value")
            ss.append(schema.map_value(row[col_index[schema.protected_column]], row_no,
                                       schema.protected_column))
            ys.append(schema.map_value(row[col_index[schema.label_column]], row_no,
                                       schema.label_column))
            if schema.round_column is not None:
                try:
                    t = int(row[col_index[schema.round_column]])
                except ValueError:
                    raise IngestionError(f"row {row_no}: non-integer round value")
                if t not in seen:
                    seen.add(t)
                elif t != rounds[-1]:
                    raise IngestionError(f"row {row_no}: round {t} reappears after round "
                                         f"{rounds[-1]}; each round's rows must be contiguous")
            else:
                t = len(rounds) // schema.batch_size + 1
            rounds.append(t)
    if not rounds:
        raise IngestionError("file contains no data rows")
    # each round's rows are contiguous, so a batch starts wherever the round changes
    starts = [i for i in range(1, len(rounds)) if rounds[i] != rounds[i - 1]]
    return [TaskBatch(f, y, s, round=rounds[i]) for f, y, s, i in zip(
        np.split(np.array(feats), starts), np.split(np.array(ys), starts),
        np.split(np.array(ss), starts), [0] + starts)]
