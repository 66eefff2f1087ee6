"""Steadiness report: run each workload repeatedly and compare each metric's
run-to-run spread with its bound in ``BENCHMARK.json``.

Run from the repository root::

    python3 perfbench/steady.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workload legacy-timetravel

Runs are sequential, one benchmark process at a time, each with its own
seed.  For every end-to-end metric the report prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the bound; ``ok`` means the spread is below a
third of the bound.  ``setup_s`` has no spread requirement and is marked
``info``.  A run that fails or reports ``correct: false`` is listed too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import spread  # noqa: E402


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if command[0] == "python3":
        command[0] = sys.executable
    finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=False)
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {finished.returncode}: "
                           f"{finished.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def report(spec: dict, workload: str, results: list[dict]) -> bool:
    bad = [r for r in results if not r["correct"] or r["failed"]]
    print(f"\n== {workload}: {len(results)} runs, "
          f"{sum(r['attempted'] for r in results)} operations, "
          f"{sum(r['failed'] for r in results)} failed, "
          f"{len(bad)} runs not correct ==")
    print(f"{'metric':22s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    steady = not bad
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        result = spread(values)
        if name == "setup_s":
            verdict = "info"
        elif result.relative < metric["bound"] / 3:
            verdict = "ok"
        else:
            verdict = "WIDE" if result.relative > metric["bound"] else "over 1/3"
            steady = steady and result.relative <= metric["bound"]
        print(f"{name:22s} {metric['unit']:6s} {result.median:12.4f} {result.q1:12.4f} "
              f"{result.q3:12.4f} {result.relative:8.3f} {metric['bound']:6.2f}  {verdict}")
    return steady


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("a spread needs at least two runs")
    steady = True
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(spec, workload, seed))
            values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
        steady = report(spec, workload, results) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
