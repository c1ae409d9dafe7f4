"""Command line interface.

Exit codes: 0 on success, 1 on data/validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, get_type_hints

from . import collab, report, stats
from .corpus import DEFAULT_WINDOW, HOME_COUNTRY, is_alpha2, load_corpus, validate_corpus
from .errors import CollabmapError
from .harness import SynthConfig, generate
from .indicators import LEVEL_SDS, LEVEL_UDA

_SUBSETS = {
    "all": collab.SELECTOR_ALL,
    "collab": collab.SELECTOR_EXTRAMURAL,
    "industry": collab.SELECTOR_INDUSTRY,
}


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``floor``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return integer


def _country_code(text: str) -> str:
    if not is_alpha2(text):
        raise argparse.ArgumentTypeError(f"must be an upper-case alpha-2 code, got {text!r}")
    return text


def _add_corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", required=True, help="directory with the corpus files")
    parser.add_argument("--year-min", type=int, default=DEFAULT_WINDOW[0],
                        help="first year of the observation window")
    parser.add_argument("--year-max", type=int, default=DEFAULT_WINDOW[1],
                        help="last year of the observation window")
    parser.add_argument("--home-country", type=_country_code, default=HOME_COUNTRY,
                        help="alpha-2 country code a firm must have to count as industry")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=report.FORMATS, default="csv")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _load(args: argparse.Namespace):
    return load_corpus(args.data_dir, window=(args.year_min, args.year_max),
                       home_country=args.home_country)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load(args)
    warnings = validate_corpus(corpus)
    lo, hi = corpus.window
    print(f"publications: {len(corpus.publications)} "
          f"({corpus.window_excluded} excluded by window {lo}-{hi})")
    print(f"home country: {corpus.home_country}")
    print(f"organizations: {len(corpus.organizations)}")
    print(f"journals: {len(corpus.journal_ids)}")
    print(f"researchers: {len(corpus.researchers)}")
    print(f"warnings: {len(warnings)}")
    for issue in warnings:
        print(f"  {issue.code} {issue.subject}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = args.build_table(_load(args), args)
    _emit(report.render(table, args.format), args.out)
    return 0


def _cmd_edges(args: argparse.Namespace) -> int:
    _emit(report.edges_csv(_load(args)), args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(**{f.name: getattr(args, f.name.removeprefix("n_"))
                            for f in fields(SynthConfig)})
    out = generate(config, args.out)
    print(f"wrote synthetic corpus to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabmap",
        description="Map university-industry collaboration in a publication corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a corpus and report problems")
    _add_corpus_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("map", help="rank sectors by industry co-authorship intensity")
    _add_corpus_options(p)
    p.add_argument("--level", choices=(LEVEL_SDS, LEVEL_UDA), default=LEVEL_SDS)
    p.add_argument("--metric", choices=report.METRICS, default="count")
    p.add_argument("--top", type=_int_at_least(1), default=report.TOP_SDS,
                   help="number of rows to keep")
    _add_output_options(p)
    p.set_defaults(func=_cmd_table, build_table=lambda corpus, args: report.build_rank_table(
        corpus, level=args.level, metric=args.metric, k=args.top))

    p = sub.add_parser("edges", help="export the collaboration edge list as CSV")
    _add_corpus_options(p)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("compare", help="run one of the standard comparisons")
    _add_corpus_options(p)
    p.add_argument("--grouping", choices=stats.GROUPINGS, required=True)
    p.add_argument("--indicator", required=True,
                   choices=tuple(dict.fromkeys(i for _, i in stats.COMPARISONS)))
    p.add_argument("--min-collab-pubs", type=_int_at_least(0), default=stats.MIN_COLLAB_PUBS,
                   help="sds_all_vs_collab only: minimum extramural publications "
                        "for a sector to qualify")
    _add_output_options(p)
    p.set_defaults(func=_cmd_table, format="json",
                   build_table=lambda corpus, args: stats.compare(
                       corpus, args.grouping, args.indicator,
                       min_collab_pubs=args.min_collab_pubs))

    p = sub.add_parser("multidisc", help="multidisciplinarity indices by scope")
    _add_corpus_options(p)
    p.add_argument("--subset", choices=tuple(_SUBSETS), default="all")
    _add_output_options(p)
    p.set_defaults(func=_cmd_table, build_table=lambda corpus, args: report.build_multidisc_table(
        corpus, _SUBSETS[args.subset]))

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    types = get_type_hints(SynthConfig)
    for f in fields(SynthConfig):
        required = f.default is MISSING
        p.add_argument("--" + f.name.removeprefix("n_").replace("_", "-"), type=types[f.name],
                       required=required, default=None if required else f.default)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CollabmapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
