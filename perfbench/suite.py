"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 11,12] [--trace 0|1|both]
                               [--seconds S] [--out perfbench/history/BENCH_n.json]

Each (workload, seed, trace) is one `perfbench/run.py` process. The
summary gives, per workload and metric, the median, the quartiles and
the spread (interquartile distance over the median), and for end-to-end
metrics whether the spread stays within a third of the metric's bound in
BENCHMARK.json. With the defaults it runs all four workloads once at the
pinned seed, untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import PINNED_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_once(workload: str, seed: int, trace: int, seconds: float):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), {})
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    raw = next((json.loads(x[4:]) for x in lines if x.startswith("raw ")), {})
    if result is not None:  # unscaled wall times ride along, under their own names
        result["metrics"].update({f"raw.{k}": {"value": v, "unit": "s"} for k, v in raw.items()})
    problems = [x.strip() for x in lines if x.strip().startswith("FAILED")]
    if result is None:
        problems.append(f"run.py exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return result, env, problems, wall


def summarise(values) -> dict:
    q1, q3 = checks.quartiles(values)
    return {"values": values, "median": checks.median(values), "q1": q1, "q3": q3,
            "spread": checks.spread(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=str(PINNED_SEED))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default is run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    seconds = args.seconds
    if seconds is None:
        spec_path = ROOT / "BENCHMARK.json"
        seconds = json.loads(spec_path.read_text())["run_seconds"] if spec_path.exists() else 20
    bounds = _bounds()

    collected = {n: {t: {"metrics": {}, "units": {}, "attempted": 0, "failed": 0,
                         "problems": [], "walls": []} for t in traces} for n in names}
    env = {}
    for seed in seeds:
        for name in names:
            for trace in traces:
                result, env_run, problems, wall = run_once(name, seed, trace, seconds)
                env = env or env_run
                slot = collected[name][trace]
                slot["walls"].append(wall)
                slot["problems"] += [f"seed {seed}: {p}" for p in problems]
                if result is None:
                    slot["failed"] += 1
                    slot["attempted"] += 1
                    continue
                slot["attempted"] += result["attempted"]
                slot["failed"] += result["failed"]
                for metric, mv in result["metrics"].items():
                    slot["metrics"].setdefault(metric, []).append(mv["value"])
                    slot["units"][metric] = mv["unit"]
                print(f"# {name} seed={seed} trace={trace} wall={wall:.1f}s "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {"env": env, "seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        summary["workloads"][name] = {}
        for trace in traces:
            slot = collected[name][trace]
            frac = checks.failed_frac(slot["failed"], max(slot["attempted"], 1))
            print(f"\n{name}  trace={trace}  runs={len(seeds)}  "
                  f"failed_frac={frac:.6g} ({slot['failed']} of {slot['attempted']})  "
                  f"run wall median={checks.median(slot['walls']):.1f}s")
            block = {"seeds": seeds, "attempted": slot["attempted"], "failed": slot["failed"],
                     "failed_frac": frac, "problems": slot["problems"], "metrics": {}}
            for metric, values in slot["metrics"].items():
                s = summarise(values)
                s["unit"] = slot["units"][metric]
                note = ""
                if trace == 0 and metric in bounds:
                    s["bound"] = bounds[metric]
                    ok = s["spread"] < bounds[metric] / 3
                    steady &= ok or metric == "setup_s"
                    note = f"bound {bounds[metric]:g} {'ok' if ok else 'SPREAD TOO WIDE'}"
                print(f"  {metric:34s} {s['median']:14.6g} {s['unit']:6s} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} {note}")
                block["metrics"][metric] = s
            for p in slot["problems"]:
                print(f"  {p}")
            summary["workloads"][name][f"trace{trace}"] = block

    if args.out:
        out = Path(args.out)
        if out.exists():  # add these runs to an entry written by an earlier call
            earlier = json.loads(out.read_text())
            for name, blocks in earlier["workloads"].items():
                for key, block in blocks.items():
                    summary["workloads"].setdefault(name, {}).setdefault(key, block)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
