"""qtomo benchmark: one workload through the CLI pipeline, or one traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 every CLI command runs in a fresh process, timed from the
outside with tracing off: `qtomo state` (several times; the set-up),
then `qtomo sample`, the full-matrix `qtomo reconstruct --reference` and
`qtomo reconstruct --observable`, repeated while the next run is
expected to end within --seconds. Times are wall times scaled to a
nominal host speed (see _SpeedProbe); the unscaled medians are printed
on the `raw` line. With --trace 1 the same steps run through the public
library functions in a fresh process (perfbench/traced_pass.py) with a
span around each call, and per-layer metrics come from the spans.

Every operation is checked (see checks.py); a failed check counts the
operation as failed and the run goes on. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. The program is
run from the checkout's src/ directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import tracing
from workloads import PINNED_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPS = 5
REPEAT_MIN_S = 4.0
CLI_IMPORT_REPS = 5
RUN_LIMIT_S = 170.0  # every child is killed by then, so the run ends within 180 s

PROBE_ITERATIONS = 30_000
PROBE_PERIOD_S = 0.1
PROBE_NOMINAL_S = 2.0e-3  # median probe time on the 2-core host the bounds were set on

END_TO_END = {
    "setup_s": "s",
    "sample_cmd_s": "s",
    "reconstruct_cmd_s": "s",
    "estimate_cmd_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sampler.sample_s": "s",
    "sampler.records_per_s": "1/s",
    "sampler.bytes_per_record": "B",
    "sampler.threads1_s": "s",
    "parallel.speedup": "ratio",
    "parallel.workers": "count",
    "parallel.chunks": "count",
    "parallel.blas_threads": "count",
    "serialize.write_s": "s",
    "serialize.read_s": "s",
    "serialize.csv_bytes": "B",
    "estimators.table_build_s": "s",
    "estimators.disp_alphas_per_s": "1/s",
    "estimators.estimate_s": "s",
    "estimators.records_per_s": "1/s",
    "recon.reconstruct_s": "s",
    "recon.reconstruct_over_estimate": "ratio",
    "recon.accumulator_pushes": "count",
    "recon.max_z": "se",
    "recon.trace_distance": "1",
    "cli.import_s": "s",
    "trace.coverage": "ratio",
}


class _SpeedProbe:
    """Times a fixed piece of interpreter work every PROBE_PERIOD_S while a child runs.

    The host's CPU speed drifts by tens of percent over seconds to minutes
    (other tenants share the cores), and every command slows with it.
    The probe samples that speed during the command itself, at about 2 %
    of one core, so a command's wall time can be scaled to the nominal
    speed at which the probe takes PROBE_NOMINAL_S of CPU time.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            t0 = time.thread_time()  # CPU time: waiting for a core the child holds is not slowness
            s = 0
            for i in range(PROBE_ITERATIONS):
                s += i * i
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Nominal over mean probe time: a command's wall time follows the mean speed."""
        return PROBE_NOMINAL_S * len(self.samples) / sum(self.samples)


class Child(NamedTuple):
    wall: float  # seconds, measured from outside
    rc: int
    rss: int  # peak RSS in bytes, from os.wait4
    scale: float  # nominal over measured probe time during the child

    @property
    def time(self) -> float:
        """Wall time scaled to the nominal host speed."""
        return self.wall * self.scale


class Runner:
    """Starts children one at a time, in a work directory, under one deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, argv, log_name: str) -> Child:
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 0:
            return Child(0.0, -1, 0, 1.0)
        with open(self.workdir / log_name, "wb") as log, _SpeedProbe() as probe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        return Child(wall, proc.returncode, usage.ru_maxrss * 1024, probe.scale())

    def count(self, what: str, attempted: int, failures) -> None:
        """Add attempted operations; each entry of failures is one that failed."""
        self.attempted += attempted
        self.failed += len(failures)
        self.problems += [f"{what}: {f}" for f in failures]

    def record(self, what: str, problems) -> None:
        """Count one operation; it failed if it has problems."""
        self.count(what, 1, ["; ".join(problems)] if problems else [])

    def exit_problems(self, rc: int, log_name: str):
        if rc == 0:
            return []
        log = self.workdir / log_name  # absent when the run's deadline had passed
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.exists() else []
        return [f"exit code {rc}" + (f" ({tail[0]})" if tail else "")]


def _cli(*args) -> list:
    return [sys.executable, "-m", "qtomo.cli", *args]


def run_pipeline(wl: Workload, seed: int, seconds: float, rn: Runner):
    """End-to-end metrics (scaled) and the raw wall-time medians of one run."""
    timed = ("setup_s", "sample_cmd_s", "reconstruct_cmd_s", "estimate_cmd_s")
    scaled = {m: [] for m in timed}
    raw = {m: [] for m in timed}
    peak = 0
    rho = None

    def step(metric: str, what: str, argv, check) -> float:
        nonlocal peak
        log = f"{metric}.log"
        child = rn.run(argv, log)
        scaled[metric].append(child.time)
        raw[metric].append(child.wall)
        peak = max(peak, child.rss)
        problems = rn.exit_problems(child.rc, log)
        if child.rc == 0:
            problems += check()
        rn.record(what, problems)
        return child.wall

    budget = min(seconds, RUN_LIMIT_S)

    def fits(metric: str) -> bool:
        """Whether one more run of this command is expected to end within the budget."""
        return rn.elapsed() + raw[metric][-1] <= budget

    def repeated(metric: str, *args) -> None:
        """Run a command until it has used REPEAT_MIN_S in this round, so that
        short commands, whose times spread most, get as much measured time
        as long ones."""
        used = step(metric, *args)
        while used < REPEAT_MIN_S and fits(metric):
            used += step(metric, *args)

    def reference_checked(check):
        return lambda: check() if rho is not None else ["no reference state"]

    state = rn.workdir / "state.json"
    for _ in range(SETUP_REPS):
        step("setup_s", "qtomo state", _cli("state", *wl.state_args, "--out", "state.json"),
             lambda: checks.check_state_file(state, wl))
    if state.exists():
        rho = checks.state_matrix(checks.load_json(state))

    n_max = () if wl.n_max is None else ("--n-max", str(wl.n_max))
    commands = (
        ("sample_cmd_s", "qtomo sample",
         _cli("sample", "--method", wl.method, "--state", "state.json",
              "--shots", str(wl.shots), "--seed", str(seed), "--out", "records.csv"),
         lambda: checks.check_csv(rn.workdir / "records.csv", wl, seed)),
        ("reconstruct_cmd_s", "qtomo reconstruct",
         _cli("reconstruct", "--method", wl.method, "--records", "records.csv", *n_max,
              "--reference", "state.json", "--out", "matrix.json"),
         reference_checked(lambda: checks.check_reconstruction(
             checks.load_json(rn.workdir / "matrix.json"), rho, wl.shots)[1])),
        ("estimate_cmd_s", "qtomo reconstruct --observable",
         _cli("reconstruct", "--method", wl.method, "--records", "records.csv", *n_max,
              "--observable", wl.observable, "--out", "estimate.json"),
         reference_checked(lambda: checks.check_estimate(
             checks.load_json(rn.workdir / "estimate.json"),
             checks.expected_observable(wl, rho), wl.shots)[1])),
    )
    for command in commands:  # the first round always runs in full
        repeated(*command)
    for command in itertools.cycle(commands[::-1]):  # the noisiest, shortest command first
        if not fits(command[0]):
            break
        repeated(*command)

    med = checks.median
    metrics = {m: (med(scaled[m]), len(scaled[m])) for m in timed}
    pipeline = med(scaled["sample_cmd_s"]) + med(scaled["reconstruct_cmd_s"])
    metrics["records_per_s"] = (wl.shots / pipeline, len(scaled["reconstruct_cmd_s"]))
    metrics["peak_rss_mb"] = (peak / 2**20, sum(len(v) for v in raw.values()))
    return metrics, {m: med(raw[m]) for m in timed}


def pass_metrics(wl: Workload, data: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass (all but cli.import_s)."""
    spans = tracing.spans_from_json(data["spans"])
    v = data["values"]
    total = tracing.total
    sample_s = total(spans, f"sampler.sample_{wl.method}")
    threads1_s = total(spans, f"sampler.sample_{wl.method}_threads1")
    cold = total(spans, "estimators.estimate_cold")
    warm = total(spans, "estimators.estimate_warm")
    recon_s = total(spans, "recon.reconstruct_matrix")
    return {
        "sampler.sample_s": sample_s,
        "sampler.records_per_s": wl.shots / sample_s,
        "sampler.bytes_per_record": v["bytes_per_record"],
        "sampler.threads1_s": threads1_s,
        "parallel.speedup": threads1_s / sample_s,
        "parallel.workers": v["workers"],
        "parallel.chunks": v["chunks"],
        "parallel.blas_threads": v["blas_threads"],
        "serialize.write_s": total(spans, "serialize.records_to_csv"),
        "serialize.read_s": total(spans, "serialize.records_from_csv"),
        "serialize.csv_bytes": v["csv_bytes"],
        "estimators.table_build_s": cold - warm,
        "estimators.disp_alphas_per_s": v["disp_alphas_per_s"],
        "estimators.estimate_s": warm,
        "estimators.records_per_s": wl.shots / warm,
        "recon.reconstruct_s": recon_s,
        "recon.reconstruct_over_estimate": recon_s / warm,
        "recon.accumulator_pushes": tracing.count(
            spans, "recon.accumulator_push", parent="recon.reconstruct_matrix"),
        "recon.max_z": v["max_z"],
        "recon.trace_distance": v["trace_distance"],
        "trace.coverage": tracing.coverage(spans, wall),
    }


def run_traced(wl: Workload, seed: int, seconds: float, rn: Runner) -> dict:
    passes = []
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    while True:
        t_pass = time.perf_counter()
        out = traces / f"{wl.name}-seed{seed}-{os.getpid()}-{len(passes)}.json"
        child = rn.run([sys.executable, str(HERE / "traced_pass.py"), wl.name,
                        str(seed), str(rn.workdir), str(out)], "traced.log")
        if child.rc != 0:
            rn.record("traced pass", rn.exit_problems(child.rc, "traced.log"))
        else:
            data = checks.load_json(out)
            rn.count("traced pass", data["attempted"], data["problems"])
            nesting = tracing.check_nesting(tracing.spans_from_json(data["spans"]))
            rn.record("span nesting", nesting)
            if not data["problems"] and not nesting:
                passes.append(pass_metrics(wl, data, child.wall))
        per_pass = time.perf_counter() - t_pass
        if not passes or rn.elapsed() + per_pass > min(seconds, RUN_LIMIT_S):
            break

    imports = []
    for _ in range(CLI_IMPORT_REPS):
        child = rn.run([sys.executable, "-c", "import qtomo.cli"], "import.log")
        rn.record("import qtomo.cli", rn.exit_problems(child.rc, "import.log"))
        imports.append(child.wall)

    if not passes:
        return {}
    metrics = {name: (checks.median([p[name] for p in passes]), len(passes))
               for name in passes[0]}
    metrics["cli.import_s"] = (checks.median(imports), len(imports))
    return {name: metrics[name] for name in PER_LAYER}


def environment(rn: Runner) -> dict:
    child = rn.run([sys.executable, str(HERE / "envinfo.py"), str(ROOT)], "env.log")
    text = (rn.workdir / "env.log").read_text(errors="replace").strip().splitlines()
    if child.rc != 0 or not text:
        return {"error": f"envinfo exit code {child.rc}"}
    return json.loads(text[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qtomo" / "__init__.py").is_file():
        print(f"error: no qtomo sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    raw = None
    try:
        rn = Runner(workdir)
        env = environment(rn)
        if args.trace:
            measured, names = run_traced(wl, args.seed, args.seconds, rn), PER_LAYER
        else:
            (measured, raw), names = run_pipeline(wl, args.seed, args.seconds, rn), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    if raw is not None:
        print("raw " + json.dumps(raw))  # unscaled wall-time medians, in seconds
    for name, unit in names.items():
        if name in measured:
            value, n = measured[name]
            print(f"  {name:34s} {value:14.6g} {unit:6s} (median of {n})")
        else:
            print(f"  {name:34s} {'missing':>14s}")
    print(f"  {'failed_frac':34s} {checks.failed_frac(rn.failed, rn.attempted):14.6g} "
          f"({rn.failed} of {rn.attempted} operations)")
    for p in rn.problems:
        print(f"  FAILED {p}")

    correct = rn.failed == 0 and len(measured) == len(names)
    result = {
        "correct": correct,
        "attempted": rn.attempted,
        "failed": rn.failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in names.items() if name in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
