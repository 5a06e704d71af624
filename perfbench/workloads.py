"""Benchmark workloads: each one turns a seed into `fairsaoml` configs.

The program only ever sees the generated configs (and, for the CSV
workload, the CSV that `fairsaoml gen-data` writes from them).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

DIM = 10


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    envs: int              # drift environments; the boundary flips sign at each switch
    tasks_per_env: int     # rounds per environment
    batch_size: int
    support_per_class: int
    query_size: int
    reps: int
    fairness: Tuple[Tuple[str, float], ...]
    eta1: float
    eta2: float
    delta: float = 0.003
    n_meta: int = 5
    s_radius: Optional[float] = None   # None: the program's default sqrt(1 + 2*eps_1) - 1
    taus: Tuple[int, ...] = (16,)
    tail_fraction: float = 0.25   # share of rounds the 80%-rule verdict averages
    l2: float = 1e-3
    from_csv: bool = False
    base: int = 2

    @property
    def rounds(self) -> int:
        return self.envs * self.tasks_per_env

    @property
    def validation_size(self) -> int:
        return self.batch_size - 2 * self.support_per_class - self.query_size

    @property
    def radius(self) -> float:
        if self.s_radius is not None:
            return self.s_radius
        return math.sqrt(1.0 + 2.0 * self.fairness[0][1]) - 1.0

    def rep_seeds(self, seed: int) -> list:
        return [seed + i for i in range(self.reps)]


WORKLOADS = {w.name: w for w in (
    # Criterion-7 drift settings under DI: |A_t| = t, so the per-expert
    # adaptation and meta-gradient loops dominate and `report` is the smaller
    # share. Batch, support and query are eight times criterion 7's (400, 20,
    # 200): at 400 rows the loops are bound by interpreter dispatch, whose
    # speed on a shared host swung `run` by 14-15% (coefficient of variation)
    # from one run to the next; at 3,200 rows and T = 36, in the same time,
    # by 7-10%.
    Workload(name="di-drift",
             scheme="di", envs=3, tasks_per_env=12, batch_size=3200,
             support_per_class=160, query_size=1600, reps=1,
             fairness=(("deo", 0.13),), eta1=0.2, eta2=0.3, s_radius=0.5),
    # The README demo config with 4 repetitions: |A_t| is about 2, engine time
    # goes to split_batch, wall time to trace reading and the windowed solver;
    # the only workload that uses the repetition thread pool. Not in
    # BENCHMARK.json: its 14 s cycles leave too few per run within the time
    # that a full comparison of three workloads allows; kept runnable for the
    # README's repetition-pool reference figure.
    Workload(name="dgc-demo",
             scheme="dgc", envs=3, tasks_per_env=32, batch_size=400,
             support_per_class=20, query_size=200, reps=4,
             fairness=(("deo", 0.13),), eta1=0.05, eta2=0.05),
    # Same layers used differently: CSV ingestion, m = 2 constraints, a
    # horizon above the 256-round exhaustive-window limit (strided solver)
    # and a long trace, whose reading grows as T^2 in time and memory.
    Workload(name="dgc-long-csv",
             scheme="dgc", envs=17, tasks_per_env=16, batch_size=200,
             support_per_class=20, query_size=100, reps=1,
             fairness=(("deo", 0.13), ("ddp", 0.1)), eta1=0.05, eta2=0.05,
             taus=(16, 64), from_csv=True),
)}


def stream_section(wl: Workload, seed: int) -> dict:
    """Alternating drift: the boundary flips sign and the group bias grows."""
    envs = []
    for i in range(wl.envs):
        sign = 1.0 if i % 2 == 0 else -1.0
        bias = 0.2 + 0.6 * i / max(1, wl.envs - 1)
        envs.append({"n_tasks": wl.tasks_per_env, "dim": DIM,
                     "boundary": [sign, sign] + [0.0] * (DIM - 2),
                     "group_bias": bias, "noise": 0.05})
    return {"batch_size": wl.batch_size, "seed": seed, "environments": envs}


def _common(wl: Workload, seed: int, out: str) -> dict:
    cfg = {
        "scheme": wl.scheme, "base": wl.base, "n_meta": wl.n_meta,
        "eta1": wl.eta1, "eta2": wl.eta2, "delta": wl.delta,
        "fairness": [{"kind": k, "epsilon": e} for k, e in wl.fairness],
        "split": {"support_per_class": wl.support_per_class,
                  "query_size": wl.query_size},
        "reps": wl.reps, "seed": seed, "out": out,
        "loss": {"kind": "logistic", "l2": wl.l2},
        "metrics": {"tau": list(wl.taus), "tail_fraction": wl.tail_fraction},
    }
    if wl.s_radius is not None:
        cfg["s_radius"] = wl.s_radius
    return cfg


def gen_config(wl: Workload, seed: int, csv_path: str) -> dict:
    """Config for `fairsaoml gen-data`, which writes the stream to `csv_path`."""
    cfg = _common(wl, seed, csv_path)
    cfg["stream"] = stream_section(wl, seed)
    return cfg


def run_config(wl: Workload, seed: int, out_dir: str, csv_path: Optional[str] = None) -> dict:
    """Config for `fairsaoml run`; reads `csv_path` when the workload ingests CSV."""
    cfg = _common(wl, seed, out_dir)
    if wl.from_csv:
        cfg["csv"] = {"path": csv_path,
                      "feature_columns": [f"f{i}" for i in range(DIM)]}
    else:
        cfg["stream"] = stream_section(wl, seed)
    return cfg
