"""Synthetic drifting task streams and the CSV ingestion path."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, IngestionError
from .model_core import TaskBatch

MAX_BATCH_RETRIES = 100
FLOAT_FORMAT = "%.17g"  # round-trips every float64; also used for rounds.csv
DEFAULT_MAPPING = {"-1": -1, "1": 1, "+1": 1}  # raw protected and label values -> {-1, +1}


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


@dataclass(frozen=True)
class Stream:
    """The batches of `spec`, each drawn when a pass reaches it.

    Every pass seeds its own generator with `spec.seed`, so each yields the
    same batches in the same order, and nothing holds a batch the caller has
    let go. `len()` draws nothing; `list()` gives an indexable copy.
    """
    spec: StreamSpec

    def __len__(self) -> int:
        return sum(env.n_tasks for env in self.spec.environments)

    def __iter__(self) -> Iterator[TaskBatch]:
        rng = np.random.default_rng(self.spec.seed)
        t = 0
        for env in self.spec.environments:
            for _ in range(env.n_tasks):
                t += 1
                yield _draw_batch(rng, env, self.spec.batch_size, t)


def generate_stream(spec: StreamSpec) -> Stream:
    return Stream(spec)


@dataclass(frozen=True)
class CsvSchema:
    feature_columns: tuple
    protected_column: str = "s"
    label_column: str = "y"
    round_column: Optional[str] = "t"
    batch_size: Optional[int] = None  # used when round_column is None
    mapping: Optional[Dict[str, int]] = None  # raw value -> {-1, +1}

    def __post_init__(self):
        if not self.feature_columns:
            raise ConfigurationError("a CSV needs at least one feature column")
        if self.round_column is None and self.batch_size is None:
            raise ConfigurationError("a CSV without a round column needs a batch_size")

    @property
    def columns(self) -> list:
        """The columns the file must have."""
        return (list(self.feature_columns) + [self.protected_column, self.label_column]
                + [c for c in [self.round_column] if c is not None])

    @property
    def table(self) -> Dict[str, int]:
        return DEFAULT_MAPPING if self.mapping is None else self.mapping

    def map_value(self, raw: str, row_no: int, column: str) -> int:
        table = self.table
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
    """The file's rows as one TaskBatch per round.

    One `np.loadtxt` call parses the file, and the batches are views cut where
    the round changes. Where that parse fails, or the file holds anything that
    `csv.reader` and `float`/`int` might read differently, the row loop
    `_load_csv_rows` reads it instead, so its semantics and its row-numbered
    IngestionErrors hold for every file.
    """
    import warnings
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data rows; any warning sends the file to the row loop
            warnings.simplefilter("error")
            columns = _parse_columns(path, schema)
    except (ValueError, OverflowError, Warning):
        columns = None
    return _load_csv_rows(path, schema) if columns is None else _batches(*columns)


def _batches(x, y, s, starts, rounds) -> List[TaskBatch]:
    """Rows x, y, s cut at `starts` into batches numbered `rounds`."""
    return [TaskBatch(*rows, round=t) for *rows, t in zip(
        np.split(x, starts), np.split(y, starts), np.split(s, starts), rounds)]


def _parse_columns(path: str, schema: CsvSchema):
    """`_batches`' arguments from one `np.loadtxt` call, or None where the row
    loop might read the file differently."""
    table = schema.table
    with open(path, encoding="utf-8") as fh:  # \r and \r\n read as \n, as csv splits rows
        last = ""
        for chunk in iter(lambda: fh.read(1 << 16), ""):
            # csv unquotes and loadtxt does not; loadtxt skips blank lines and
            # numpy strings drop trailing NULs; numpy's number parsers strip
            # \x1c-\x1f as whitespace and float and int do not; a chunk without
            # a line end may be part of a field beyond csv's field_size_limit
            if (any(c in chunk for c in '"\x00\x1c\x1d\x1e\x1f')
                    or "\n\n" in last + chunk or "\n" not in chunk):
                return None
            last = chunk[-1]
        fh.seek(0)
        header = next(csv.reader([fh.readline()]))
        col_index = {name: i for i, name in enumerate(header)}
        if not all(c in col_index for c in schema.columns):
            return None
        # label strings one character wider than any key, so a cut value matches none
        label = f"U{max(map(len, table), default=0) + 1}"
        kinds = ([(col_index[c], "f8") for c in schema.feature_columns]
                 + [(col_index[schema.protected_column], label),
                    (col_index[schema.label_column], label)]
                 + [(col_index[c], "i8") for c in [schema.round_column] if c is not None])
        kind = dict(kinds)
        if len(kind) != len(set(kinds)):  # a column read in two types
            return None
        # every column is read (unused ones as empty strings): usecols would accept ragged rows
        data = np.loadtxt(fh, dtype=[(str(i), kind.get(i, "U0")) for i in range(len(header))],
                          delimiter=",", comments=None, ndmin=1)

    def column(name):
        return data[str(col_index[name])]

    s = _mapped(column(schema.protected_column), table)
    y = _mapped(column(schema.label_column), table)
    if s is None or y is None:
        return None
    t = (np.arange(len(data)) // schema.batch_size + 1 if schema.round_column is None
         else column(schema.round_column))
    starts = np.flatnonzero(t[1:] != t[:-1]) + 1
    rounds = t[np.r_[0, starts]].tolist()
    if len(set(rounds)) != len(rounds):  # a round reappears
        return None
    x = np.column_stack([column(c) for c in schema.feature_columns])
    return x, y, s, starts, rounds


def _mapped(column: np.ndarray, table: Dict[str, int]) -> Optional[np.ndarray]:
    """The column's strings through `table`, or None if one is not mapped to -1 or +1."""
    keys, inverse = np.unique(column, return_inverse=True)
    values = [table.get(str(k)) for k in keys]
    if not all(v in (-1, 1) for v in values):
        return None
    return np.array(values)[inverse]


def _load_csv_rows(path: str, schema: CsvSchema) -> List[TaskBatch]:
    """`load_csv` row by row with `csv.reader`: the reference semantics, and
    the source of every IngestionError that names a row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file: header row required")
        col_index = {name: i for i, name in enumerate(header)}
        for name in schema.columns:
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
    return _batches(np.array(feats), np.array(ys), np.array(ss), starts,
                    [rounds[i] for i in [0] + starts])
