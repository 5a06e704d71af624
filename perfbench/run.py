"""Benchmark of `fairsaoml run` and `fairsaoml report`, end to end and per layer.

Run from the repository root (the package is used from ./src, not installed):

    python3 perfbench/run.py --workload dgc-demo --seed 1 --seconds 30 --trace 0

One operation is one repetition run through `run` and `report`. A cycle runs
`fairsaoml run` and then `fairsaoml report` on its artifacts, each as its own
process, and cycles repeat for --seconds. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The traced run
calls `fairsaoml.cli.main` in this process with the wrappers of tracing.py.
Outputs are checked against independent recomputations (checks.py) after
the timed cycles.
"""
import time

PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DIM, WORKLOADS, Workload, gen_config, run_config  # noqa: E402

OUT_DIR = ".perfbench_out"
CHILD_DEADLINE_S = 150.0   # from process start; leaves time for the checks before 180 s

E2E_UNITS = {"setup_s": "s", "run_s": "s", "report_s": "s",
             "run_peak_rss_mb": "MB", "report_peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _write_json(path: Path, obj: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


class ChildCli:
    """`fairsaoml <args>` as its own process: wall time and peak resident memory."""

    def __init__(self, root: Path, log: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.root, self.log = root, log

    def __call__(self, args):
        with open(self.log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "fairsaoml.cli", *args],
                                    cwd=self.root, env=self.env, stdout=fh, stderr=fh)
            timer = threading.Timer(max(1.0, PROCESS_START + CHILD_DEADLINE_S - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildProcessError:   # reaped by the deadline kill
                return False, time.perf_counter() - start, 0.0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode == 0, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


class InProcessCli:
    """`fairsaoml.cli.main(args)` in this process, for the traced run."""

    def __call__(self, args):
        from fairsaoml.cli import main
        start = time.perf_counter()
        code = main(list(args))
        return code == 0, time.perf_counter() - start, 0.0


def run_pair(cli, cfg_path: Path, out: Path):
    """`run` then `report` on its artifacts; keeps run's regret.json for comparison."""
    ok_run, run_s, run_rss = cli(["run", "--config", str(cfg_path)])
    ok_rep, rep_s, rep_rss = False, 0.0, 0.0
    if ok_run:
        shutil.copy(out / "regret.json", out / "regret.run.json")
        ok_rep, rep_s, rep_rss = cli(["report", "--artifacts", str(out)])
    return {"ok": ok_run and ok_rep, "run_s": run_s, "report_s": rep_s,
            "run_peak_rss_mb": run_rss, "report_peak_rss_mb": rep_rss}


def stream_round_trip(csv_path: Path, cfg_path: Path) -> list:
    """The CSV that gen-data wrote loads back as exactly the stream `run` generates."""
    from fairsaoml import cli, stream
    generated = stream.generate_stream(cli.build_stream_spec(cli.load_config(str(cfg_path))))
    schema = stream.CsvSchema(feature_columns=tuple(f"f{i}" for i in range(DIM)))
    loaded = stream.load_csv(str(csv_path), schema)
    if len(loaded) != len(generated) or any(
            a.round != b.round or not (a.features == b.features).all()
            or not (a.labels == b.labels).all() or not (a.protected == b.protected).all()
            for a, b in zip(generated, loaded)):
        return ["stream: the gen-data CSV does not load back as the generated stream"]
    return []


class Bench:
    def __init__(self, wl: Workload, seed: int, root: Path, work: Path, trace: bool):
        self.wl, self.seed, self.root, self.work, self.trace = wl, seed, root, work, trace
        self.csv_path = work / "stream.csv"
        self.gen_cfg = work / "gen.json"

    def setup(self):
        """Cold set-up: import the package and prepare the workload's inputs."""
        import fairsaoml.cli  # noqa: F401  (timed: the import is part of set-up)
        self.tracer = self.patch = None
        if self.trace:
            from tracing import Patch, Tracer
            self.tracer = Tracer()
            self.patch = Patch(self.tracer)
            self.patch.apply()
        self.child = ChildCli(self.root, self.work / "fairsaoml.log")
        self.inproc = InProcessCli()
        _write_json(self.gen_cfg, gen_config(self.wl, self.seed, str(self.csv_path)))
        if self.wl.from_csv:
            gen = self.inproc if self.trace else self.child
            ok, _, _ = gen(["gen-data", "--config", str(self.gen_cfg)])
            if not ok:
                raise RuntimeError(f"gen-data failed; see {self.child.log}")
        return time.perf_counter() - PROCESS_START

    def cycle(self, i: int) -> dict:
        op = self.work / f"op{i}"
        out = op / "out"
        cfg = _write_json(op / "run.json", run_config(self.wl, self.seed, str(out),
                                                     str(self.csv_path)))
        if not self.trace:
            return dict(run_pair(self.child, cfg, out), out=out)
        # untraced and traced pair, both in this process, so that the difference
        # is the wrappers' cost and not interpreter start-up
        self.patch.undo()
        plain = run_pair(self.inproc, cfg, out)
        traced_out = op / "traced"
        traced_cfg = _write_json(op / "traced.json", run_config(
            self.wl, self.seed, str(traced_out), str(self.csv_path)))
        self.patch.apply()
        traced = run_pair(self.inproc, traced_cfg, traced_out)
        return {"ok": plain["ok"] and traced["ok"], "out": out, "traced_out": traced_out,
                "untraced_s": plain["run_s"] + plain["report_s"],
                "traced_s": traced["run_s"] + traced["report_s"],
                "layers": self.tracer.take(f"cycle{i}")}

    def check(self, cycles: list) -> list:
        import checks
        good = [c for c in cycles if c["ok"]]
        if not good:
            return []
        seeds = self.wl.rep_seeds(self.seed)
        first = good[0]["out"]
        failures = checks.check_artifacts(first, self.wl, self.seed)
        for c in good:
            outs = [c["out"]] + ([c["traced_out"]] if self.trace else [])
            for out in outs:
                if out != first:
                    failures += checks.same_outputs(first, out, seeds)
                run_regret = json.loads((out / "regret.run.json").read_text(encoding="utf-8"))
                if run_regret != json.loads((out / "regret.json").read_text(encoding="utf-8")):
                    failures.append(f"report: {out} regret.json differs from the one run wrote")
        if not self.wl.from_csv:
            ok, _, _ = self.inproc(["gen-data", "--config", str(self.gen_cfg)])
            if not ok:
                return failures + ["stream: gen-data failed"]
        failures += checks.check_csv_rows(self.csv_path, self.wl)
        failures += stream_round_trip(self.csv_path, self.gen_cfg)
        return failures


def execute(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / OUT_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(wl, seed, root, work, trace)
    setup_s = bench.setup()
    oneoff = bench.tracer.take("setup") if trace else None

    cycles = []
    loop_start = time.perf_counter()
    while True:
        started = time.perf_counter()
        cycles.append(bench.cycle(len(cycles)))
        c = cycles[-1]
        print(f"perfbench: {wl.name} cycle {len(cycles)} ok={c['ok']} "
              + " ".join(f"{k}={v:.3f}" for k, v in c.items() if isinstance(v, float)),
              file=sys.stderr, flush=True)
        now = time.perf_counter()
        # start a cycle only if it should end within --seconds and the deadline
        if (now - loop_start) + (now - started) > seconds \
                or now + (now - started) > PROCESS_START + CHILD_DEADLINE_S:
            break

    check_start = time.perf_counter()
    failures = bench.check(cycles)
    print(f"perfbench: checks took {time.perf_counter() - check_start:.1f} s", file=sys.stderr)
    for f in failures:
        print(f"perfbench: FAIL {f}", file=sys.stderr)
    good = [c for c in cycles if c["ok"]] or cycles
    if trace:
        # one-off phases (set-up, checks) count once, cycles as their mean
        bench.patch.undo()
        totals = dict(oneoff)
        for k, v in bench.tracer.take("checks").items():
            totals[k] = totals.get(k, 0.0) + v
        for c in good:
            for k, v in c["layers"].items():
                totals[k] = totals.get(k, 0.0) + v / len(good)
        bench.tracer.write(str(root / OUT_DIR / f"spans-{wl.name}-seed{seed}.json"))
        from tracing import LAYER_METRICS, layer_metrics
        values = layer_metrics(totals)
        values["trace.traced_s"] = statistics.median(c["traced_s"] for c in good)
        values["trace.untraced_s"] = statistics.median(c["untraced_s"] for c in good)
        values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        values = {"setup_s": setup_s}
        for k in list(E2E_UNITS)[1:]:
            values[k] = statistics.median(c[k] for c in good)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    n_failed = sum(1 for c in cycles if not c["ok"])
    result = {"correct": not failures, "attempted": len(cycles) * wl.reps,
              "failed": n_failed * wl.reps, "metrics": metrics}
    if not failures and not n_failed:
        shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fairsaoml" / "cli.py").is_file():
        print("perfbench: no fairsaoml sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
