"""Benchmark of the collabmap batch pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/collabmap``. It
generates the workload's corpus from the seed with ``harness.generate``
(set-up, timed on its own), then starts a fresh process per run of the
workload body, so that each run's ``ru_maxrss`` covers only the program.

``--trace 0`` repeats the untraced body for about ``--seconds`` and reports
the end-to-end metrics as medians over the runs. ``--trace 1`` makes one
untraced run, one run under the span tracer and one ``tracemalloc`` pass
over the load, and reports the per-layer metrics.

Every table every run writes is checked outside the timed region (see
``checks.py``): the same digest in every run of one invocation, the edge
list against the raw-file oracle, and, for the sweep, the m=7 bundle against
a separately computed default bundle. The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` (tables) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import table_problems
from tracer import PROBES, summarize
from workloads import COMPARISONS, ROOT, WORKLOADS, expected_tables, import_program

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
REFERENCE_WORKLOAD = "bundle-50k"  # same corpus shape as sweep-50k

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "pubs_per_s": "pubs/s",
    "peak_rss_mb": "MB",
    "tables_ok_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for probe in PROBES:
        units[f"{probe}.calls"] = "count"
        units[f"{probe}.self_s"] = "s"
    for grouping, indicator in COMPARISONS:
        units[f"stats.compare.{grouping}.{indicator}.total_s"] = "s"
    units["views.useful_ratio"] = "ratio"
    units["corpus.retained_kb_per_pub"] = "KB/pub"
    units["trace.overhead_pct"] = "%"
    return units


def _child(workload: str, data: Path, out: Path, mode: str) -> dict:
    """Run body.py in a fresh process and return its JSON report."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "body.py"),
            "--workload", workload,
            "--data-dir", str(data),
            "--out", str(out),
            "--mode", mode,
        ],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"body.py --mode {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _table_problem(out: Path, report: dict, group: str, name: str,
                   reference: dict, oracle) -> str:
    """Why one table of one run is wrong, or '' if it is right."""
    if report["failure"]:
        return report["failure"]
    if group in report["errors"]:
        return report["errors"][group]
    path = out / group / name
    if not path.is_file():
        return "not written"
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    expected = reference.setdefault((group, name), digest)
    if digest != expected:
        return f"digest {digest[:12]} differs from {expected[:12]}"
    return "; ".join(table_problems(name, data.decode("utf-8"), oracle))


def _flush(directory: Path) -> None:
    """Write the corpus to disk now, so that writeback of its pages does not
    run during the next timed set-up or body."""
    for path in directory.iterdir():
        with path.open("rb") as fh:
            os.fsync(fh.fileno())


def _tamper(out: Path, groups: dict[str, tuple[str, ...]]) -> None:
    """Drop the last row of one written edge list, to show that the checks catch it."""
    path = out / next(iter(groups)) / "edges.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        n_pubs: int | None = None, tamper: bool = False) -> dict:
    """One benchmark invocation; returns the result object.

    ``n_pubs`` shrinks the corpus and ``tamper`` corrupts a table after the
    last run; both exist for the smoke test only.
    """
    import_program()
    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run_in(work, workload_name, seed, seconds, trace, n_pubs, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation still uses it


def _run_in(work: Path, workload_name: str, seed: int, seconds: float, trace: bool,
            n_pubs: int | None, tamper: bool) -> dict:
    from collabmap.harness import SynthConfig, generate, oracle_collab_counts

    workload = WORKLOADS[workload_name]
    shape = dict(workload.shape, **({"n_pubs": n_pubs} if n_pubs else {}))
    config = SynthConfig(seed=seed, **shape)
    data = work / "corpus"

    setup = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        generate(config, data)
        setup.append(time.perf_counter() - t0)
        _flush(data)
    with (data / "publications.jsonl").open(encoding="utf-8") as fh:
        lines_read = sum(1 for line in fh if line.strip())

    runs: list[tuple[Path, dict]] = []  # (output dir, report) per body run
    if trace:
        runs.append((work / "plain", _child(workload_name, data, work / "plain", "plain")))
        runs.append((work / "traced", _child(workload_name, data, work / "traced", "traced")))
        memory = _child(workload_name, data, work / "memory", "memory")
    else:
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out = work / f"run{len(runs)}"
            runs.append((out, _child(workload_name, data, out, "plain")))
            last = time.monotonic() - t0
            # start another run only if it would end less than half a run
            # past --seconds
            if time.monotonic() - start + last / 2 >= seconds:
                break

    groups = expected_tables(workload.kind)
    if tamper:
        _tamper(runs[-1][0], groups)

    reference: dict[tuple[str, str], str] = {}
    if workload.kind == "sweep":
        # the m=7 sweep bundle must equal a default bundle of a fresh load
        out = work / "reference"
        report = _child(REFERENCE_WORKLOAD, data, out, "plain")
        for name in groups["m7"]:
            path = out / "bundle" / name
            ok = not report["failure"] and "bundle" not in report["errors"] and path.is_file()
            reference[("m7", name)] = (
                hashlib.sha256(path.read_bytes()).hexdigest() if ok else "reference bundle failed"
            )

    oracle = oracle_collab_counts(data)
    attempted = failed = 0
    problems = []
    for out, report in runs:
        for group, names in groups.items():
            for name in names:
                attempted += 1
                problem = _table_problem(out, report, group, name, reference, oracle)
                if problem:
                    failed += 1
                    problems.append(f"{out.name} {group}/{name}: {problem}")

    plain = [report for out, report in runs if out.name != "traced"]
    if trace:
        traced = runs[-1][1]
        values = summarize(traced["spans"])
        values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain[0]["wall_s"] - 1.0)
        values["corpus.retained_kb_per_pub"] = memory["retained_kb_per_pub"]
        units = per_layer_units()
        absent = traced["absent"]
    else:
        wall = statistics.median(r["wall_s"] for r in plain)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "pubs_per_s": lines_read / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "tables_ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
        absent = []

    print(f"workload {workload_name} seed {seed}: {len(runs)} body runs, "
          f"{lines_read} publication lines, setup runs {len(setup)}")
    print("wall seconds per body run: " + " ".join(f"{r['wall_s']:.3f}" for _, r in runs))
    print("seconds per set-up: " + " ".join(f"{s:.3f}" for s in setup))
    for problem in problems:
        print(f"FAILED {problem}")
    for probe in absent:
        print(f"absent probe {probe} (reported as 0)")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} tables)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
