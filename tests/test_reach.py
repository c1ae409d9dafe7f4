"""Every line of ``src/collabmap`` that a command can run is run by one.

``cli.main`` runs every command and every choice on fixture40 and on one
small synthetic corpus; each ``synth`` configuration error and each usage
error of an argparse type; a few windows, home countries and well-formed
copies of fixture40 (``VARIANTS``) that reach data-dependent branches; and
each malformed copy of ``conftest.MALFORMED``. A ``sys.settrace`` tracer,
set only around each ``cli.main`` call and limited to the package's files,
records the lines that run; it puts back the trace function it replaced, so
it does not disturb a debugger or another tracer. A line inside a function
or method that never ran fails the test unless ``ALLOWED`` names it, and an
``ALLOWED`` entry that no longer matches fails it too. Lines are reported by
the first line of their statement, stripped, so the list does not depend on
line numbers.
"""

import ast
import contextlib
import dis
import importlib
import io
import itertools
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

import pytest

import collabmap
from collabmap import cli, report, stats

from conftest import FIXTURE40, MALFORMED, RESEARCHERS, write_copy, write_malformed

PACKAGE = Path(collabmap.__file__).parent

WHOLE = None  # an ALLOWED entry whose every line never runs

_BUNDLE = "item 1: collabmap bundle reports the m x n case counts and writes every table"
_RECHECK = ("no item: construction re-checks a publication rule the loader already "
            "enforces, for the dataclasses.replace copies that never pass the loader")
_DATA = "no item: a data-dependent statistics branch that no corpus here reaches"

# function or method -> (why it never runs, with the ROADMAP item that
# empties the entry, if any; its statements that never run, or WHOLE)
ALLOWED = {
    "harness.oracle_collab_counts": ("item 2: perfbench/run.py imports it until "
                                     "perfbench/checks.py counts collaborations itself", WHOLE),
    "report._case_for": (_BUNDLE, WHOLE),
    "report.count_collaborations": (_BUNDLE, WHOLE),
    "report.render_all": (_BUNDLE, WHOLE),
    "corpus.Corpus.__post_init__": (_RECHECK, (
        'raise DuplicateId("pub_id", pub.pub_id)',)),
    "corpus.Corpus._check_closed": (_RECHECK, (
        "raise InvariantViolation(",  # year outside the window
        'raise InvariantViolation(f"{where}: address list {addresses} is not a sorted set")',
        'raise InvariantViolation(f"{where}: no authors")')),
    "stats._beta_contfrac": (_DATA, (
        "d = tiny", "d = tiny", "c = tiny",
        'raise NoConvergence(f"incomplete beta fraction for a={a!r}, b={b!r}, x={x!r}")')),
    "stats._reg_inc_beta": (_DATA, ("return 0.0", "return 1.0")),
    "stats.welch_t": (_DATA, ('raise ZeroVariance("both groups have zero variance")',)),
    "stats.paired_t": ("no item: compare raises InsufficientSectors below two units first; "
                       "the kernel keeps its own precondition",
                       ('raise InsufficientData("paired test needs at least 2 pairs")',)),
    "harness.SplitMix64.distinct": ("no item: generate never asks for more distinct values "
                                    "than there are; the generator keeps its own check",
                                    ('raise ValueError(f"cannot draw {k} distinct values '
                                     'from {n}")',)),
}


def _traced_main(argv, hits, files):
    """``cli.main(argv)`` with its output discarded, recording each line of
    ``files`` it runs in ``hits``; returns the exit code."""
    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        previous = sys.gettrace()
        sys.settrace(call)
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        finally:
            sys.settrace(previous)


def _code_lines(code):
    """Lines of the instructions of every function code object in ``code``,
    past each one's entry preamble, which emits no line event."""
    lines = set()
    if code.co_flags & CO_OPTIMIZED:
        instructions = list(dis.get_instructions(code))
        start = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME") + 1
        lines.update(ins.positions.lineno for ins in instructions[start:]
                     if ins.positions.lineno is not None)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _functions(body, prefix):
    """(qualified name, node) of each function and method in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}")


def _statements_per_function():
    """Per package file, each function's code lines with the statement each
    belongs to: {filename: {name: {line: (statement line, statement text)}}}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"collabmap.{path.stem}")
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        code_lines = _code_lines(compile(source, module.__file__, "exec"))
        functions = {}
        for name, node in _functions(ast.parse(source).body, path.stem):
            spans = [(s.lineno, s.end_lineno) for s in ast.walk(node) if isinstance(s, ast.stmt)]
            functions[name] = {}
            for lineno in sorted(code_lines & set(range(node.lineno, node.end_lineno + 1))):
                # the innermost statement holding the line starts last
                first = max(lo for lo, hi in spans if lo <= lineno <= hi)
                functions[name][lineno] = first, text[first - 1].strip()
        out[module.__file__] = functions
    return out


# well-formed copies of fixture40 that reach what fixture40 itself does
# not: {file: edit} as in conftest.MALFORMED, a command, and its exit code
VARIANTS = {
    "blank_lines": ({"publications.jsonl": lambda text: text + "\n\n",
                     "roster.csv": lambda text: text.replace("\n", "\n\n", 1)},
                    ["validate"], 0),
    # a journal ranked only before the window: no record in any year's ranking
    "journal_outside_window": (
        {"journals.csv": lambda text: text + "JRN-OLD,Old Journal,1995,1.0,CAT-X\n"},
        ["compare", "--grouping", "sds_all_vs_industry", "--indicator", "ifpr"], 0),
    # one category per journal: every category's paired difference is 0
    "one_category_per_journal": (
        {"journals.csv": lambda text: text.replace("CAT-A;CAT-B;CAT-C", "CAT-C")
                                          .replace("CAT-A;CAT-B", "CAT-B")},
        ["compare", "--grouping", "multidisc_all_vs_industry", "--indicator", "ii_sci"], 1),
}


def _runs(tmp_path):
    """(argv, exit code) of every run."""
    synth = str(tmp_path / "synth")
    runs = [(["synth", "--seed", "5", "--pubs", "300", "--out", synth], 0),
            # two researchers: draws dense enough for the partial Fisher-Yates
            (["synth", "--seed", "5", "--pubs", "5", "--researchers", "2",
              "--out", str(tmp_path / "dense")], 0)]
    for bad in (["--pubs", "0"], ["--public-orgs", "-1"], ["--industry-rate", "1.5"],
                ["--year-min", "2004"]):
        runs.append((["synth", "--seed", "1", "--pubs", "10", *bad,
                      "--out", str(tmp_path / "never")], 1))
    for usage in (["--top", "0"], ["--home-country", "it"]):
        runs.append((["map", "--data-dir", str(FIXTURE40), *usage], 2))
    for data_dir in (str(FIXTURE40), synth):
        corpus = ["--data-dir", data_dir]
        formats = itertools.cycle(report.FORMATS)
        runs += [(["validate", *corpus], 0), (["edges", *corpus], 0),
                 (["edges", *corpus, "--out", str(tmp_path / "edges.csv")], 0)]
        for level, metric in zip(itertools.cycle(("sds", "uda")), report.METRICS):
            runs.append((["map", *corpus, "--level", level, "--metric", metric,
                          "--format", next(formats)], 0))
        for subset in cli._SUBSETS:
            runs.append((["multidisc", *corpus, "--subset", subset, "--format", next(formats)], 0))
        for grouping, indicator in stats.COMPARISONS:
            runs.append((["compare", *corpus, "--grouping", grouping, "--indicator", indicator,
                          "--min-collab-pubs", "3", "--format", next(formats)], 0))
        runs.append((["compare", *corpus, "--grouping", RESEARCHERS, "--indicator", "ii_sds"], 1))
    fixture = ["--data-dir", str(FIXTURE40)]
    runs += [
        # P00 of 1999 takes its journal's nearest year
        (["validate", *fixture, "--year-min", "1999"], 0),
        # sectors with articles but no extramural one
        (["compare", *fixture, "--grouping", "sds_all_vs_collab", "--indicator", "ifpr",
          "--year-min", "2002", "--year-max", "2002", "--min-collab-pubs", "0"], 0),
        # too few sectors at the default floor
        (["compare", *fixture, "--grouping", "sds_all_vs_collab", "--indicator", "ifpr"], 1),
        # no firm in FR: no collaborator; one DE firm: a single collaborator
        (["compare", *fixture, "--grouping", RESEARCHERS, "--indicator", "o",
          "--home-country", "FR"], 1),
        (["compare", *fixture, "--grouping", RESEARCHERS, "--indicator", "o",
          "--home-country", "DE"], 1),
    ]
    for name, (edits, (command, *args), code) in VARIANTS.items():
        write_copy(edits, tmp_path / name)
        runs.append(([command, "--data-dir", str(tmp_path / name), *args], code))
    for name in MALFORMED:
        argv, _ = write_malformed(name, tmp_path / "malformed" / name)
        runs.append((argv, 1))
    return runs


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reads 3.11 instruction positions")
def test_every_reachable_line_runs_from_the_cli(tmp_path):
    statements = _statements_per_function()
    hits = set()
    for argv, code in _runs(tmp_path):
        assert _traced_main(argv, hits, statements) == code, argv
    unreached, every = {}, {}
    for filename, functions in statements.items():
        for name, lines in functions.items():
            every[name] = tuple(dict(lines.values()).values())
            missed = dict(lines[n] for n in lines if (filename, n) not in hits)
            if missed:
                unreached[name] = tuple(missed.values())
    # an entry that names a reached statement or a lost function fails as well
    allowed = {name: every.get(name) if lines is WHOLE else lines
               for name, (_, lines) in ALLOWED.items()}
    assert unreached == allowed
