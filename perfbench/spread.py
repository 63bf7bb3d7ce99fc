"""Write the benchmark's baseline, BASELINE.json in this directory.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json untraced with seeds 0-9 and traced
with seed 0, each for run_seconds. For every end-to-end metric it prints
the median of the untraced runs and the distance between their first and
third quartiles as a share of the median, the steadiness figure that
BENCHMARK.json's bounds are checked against; traced runs give per-layer
figures. The runs, with the unscaled wall medians each untraced run
writes to standard error, their summaries and the host record go to
BASELINE.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
TRACED_SEEDS = (0,)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result, host record) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    # "wall campaign_s = 4.2 s": the unscaled medians behind the scaled ones
    wall = {
        words[1]: float(words[3])
        for words in (line.split() for line in proc.stderr.splitlines())
        if len(words) == 5 and words[0] == "wall"
    }
    return {"seed": seed, **json.loads(lines[-1]), "wall_s": wall}, host


def summarise(runs: list) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "unit": first["unit"],
        }
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = report["workloads"][workload] = {}
        for key, seeds, trace in (("runs", SEEDS, 0), ("traced_runs", TRACED_SEEDS, 1)):
            runs = []
            for seed in seeds:
                result, report["host"] = run_once(workload, seed, seconds, trace)
                runs.append(result)
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            summary = summarise(runs)
            for name, s in summary.items():
                bound = bounds.get(name)
                mark = "" if bound is None else f"  bound {bound}" + (
                    "  OVER" if s["iqr_share"] > bound else "")
                print(f"  {name:28s} median {s['median']:.6g} {s['unit']:6s} "
                      f"iqr/median {s['iqr_share']:.4f}{mark}", flush=True)
            entry["per_layer" if trace else "end_to_end"] = summary
            entry[key] = runs
    (HERE / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
