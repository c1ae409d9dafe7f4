"""One run of a workload body in a fresh process.

    python3 perfbench/body.py --workload NAME --data-dir DIR --out DIR --mode MODE

Modes:
  plain   time the body; ``ru_maxrss`` then covers only this process, which
          did not generate the corpus
  traced  the same body with the span tracer installed
  memory  load the corpus under ``tracemalloc`` and report the bytes it
          retains; kept apart because tracemalloc slows every allocation

The body's tables are written to ``--out`` after the timed region. The last
stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import tracemalloc
from pathlib import Path

from workloads import SWEEP_THRESHOLDS, WORKLOADS, import_program

import_program()

from collabmap import cli, corpus, report  # noqa: E402  (needs import_program)

from tracer import Tracer  # noqa: E402


def _bundle(data_dir: Path, out_dir: Path) -> dict:
    loaded = corpus.load_corpus(data_dir)
    return {"bundle": report.render_all(loaded)}


def _sweep(data_dir: Path, out_dir: Path) -> dict:
    loaded = corpus.load_corpus(data_dir)
    groups: dict = {}
    for m in SWEEP_THRESHOLDS:
        try:
            groups[f"m{m}"] = report.render_all(loaded, min_collab_pubs=m)
        except Exception as exc:  # one threshold failing must not hide the others
            groups[f"m{m}"] = exc
    return groups


def _edges(data_dir: Path, out_dir: Path) -> dict:
    target = out_dir / "edges"
    target.mkdir(parents=True, exist_ok=True)
    code = cli.main(["edges", "--data-dir", str(data_dir), "--out", str(target / "edges.csv")])
    # None: the program wrote the group's files itself
    return {"edges": None if code == 0 else RuntimeError(f"collabmap edges exited {code}")}


BODIES = {"bundle": _bundle, "sweep": _sweep, "edges": _edges}


def _write_outputs(groups: dict, out_dir: Path) -> dict[str, str]:
    """Write returned tables under out_dir/<group>/; return errors by group."""
    errors = {}
    for group, result in groups.items():
        if isinstance(result, BaseException):
            errors[group] = repr(result)
        elif result is not None:
            target = out_dir / group
            target.mkdir(parents=True, exist_ok=True)
            for name, text in result.items():
                (target / name).write_text(text, encoding="utf-8", newline="\n")
    return errors


def _memory_pass(data_dir: Path) -> dict:
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    loaded = corpus.load_corpus(data_dir)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {"retained_kb_per_pub": retained / 1024 / len(loaded.publications)}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data-dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "memory"))
    args = parser.parse_args()

    if args.mode == "memory":
        print(json.dumps(_memory_pass(args.data_dir)))
        return

    body = BODIES[WORKLOADS[args.workload].kind]
    tracer = Tracer() if args.mode == "traced" else None
    absent = tracer.install() if tracer else []

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        groups = body(args.data_dir, args.out)
        failure = None
    except Exception as exc:
        groups = {}
        failure = repr(exc)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = _write_outputs(groups, args.out)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_mb": peak_rss_mb,
                "failure": failure,
                "errors": errors,
                "absent": absent,
                "spans": tracer.spans if tracer else [],
            }
        )
    )


if __name__ == "__main__":
    main()
