import argparse
import json

import pytest

from collabmap.cli import build_parser, main
from collabmap.errors import DanglingReference, DanglingUda, DuplicateId, MissingFile, ParseError
from collabmap.harness import SynthConfig, generate

from conftest import FIXTURE40, GOLDEN, MALFORMED, write_malformed


def test_validate_summarizes_clean_corpus(capsys):
    assert main(["validate", "--data-dir", str(FIXTURE40)]) == 0
    # the whole stdout: the counts, then one line per warning, by code then subject
    assert capsys.readouterr().out == (
        "publications: 40 (1 excluded by window 2001-2003)\n"
        "home country: IT\n"
        "organizations: 12\n"
        "journals: 3\n"
        "researchers: 16\n"
        "warnings: 11\n"
        "  UnlinkedAuthor P01:Rossi G.\n"
        "  UnlinkedAuthor P02:Colombo P.\n"
        "  UnlinkedAuthor P03:Bianchi L.\n"
        "  UnlinkedAuthor P03:Ferrario D.\n"
        "  UnlinkedAuthor P03:Greco S.\n"
        "  UnlinkedAuthor P04:Moretti A.\n"
        "  UnlinkedAuthor P04:Villa R.\n"
        "  UnlinkedAuthor P06:Huber K.\n"
        "  UnlinkedAuthor P13:Weber H.\n"
        "  UnlinkedAuthor P35:Gasser P.\n"
        "  UnreferencedOrganization UNI-D\n"
    )


def test_validate_rejects_tampered_corpus(fixture_copy, capsys):
    path = fixture_copy / "roster.csv"
    path.write_text(
        path.read_text(encoding="utf-8").replace("UNI-C,BIO1", "UNI-X,BIO1"),
        encoding="utf-8")
    assert main(["validate", "--data-dir", str(fixture_copy)]) == 1
    assert "error:" in capsys.readouterr().err


def test_map_writes_csv_file(tmp_path):
    out = tmp_path / "rank.csv"
    code = main([
        "map", "--data-dir", str(FIXTURE40), "--level", "sds",
        "--metric", "count", "--top", "6", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "rank_sds_count.csv").read_bytes()


def test_map_markdown_to_stdout(capsys):
    code = main([
        "map", "--data-dir", str(FIXTURE40), "--level", "uda",
        "--metric", "count", "--top", "4", "--format", "md",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "rank_uda_count.md").read_bytes()


def test_edges_matches_golden(capsys):
    assert main(["edges", "--data-dir", str(FIXTURE40)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "edges.csv").read_bytes()


def test_compare_json_matches_golden(capsys):
    code = main([
        "compare", "--data-dir", str(FIXTURE40),
        "--grouping", "sds_all_vs_collab", "--indicator", "ifpr",
        "--min-collab-pubs", "3", "--format", "json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / "compare_sds_all_vs_collab_ifpr.json").read_text(encoding="utf-8")
    assert json.loads(out) == json.loads(golden)


def test_compare_insufficient_sectors_is_an_error(capsys):
    # the default publication floor leaves too few qualifying sectors here
    code = main([
        "compare", "--data-dir", str(FIXTURE40),
        "--grouping", "sds_all_vs_collab", "--indicator", "ifpr",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_multidisc_csv(capsys):
    code = main([
        "multidisc", "--data-dir", str(FIXTURE40),
        "--subset", "industry", "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scope,subset,ii_sds,ii_sci,n_pubs"
    assert lines[1] == "BIO1,industry_coauthored,2.000,,1"


def test_synth_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code = main([
        "synth", "--seed", "7", "--pubs", "150", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "publications.jsonl").exists()
    assert main(["validate", "--data-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "publications: 150" in out
    # with no optional flag, the CLI writes what the library's defaults write
    library_dir = generate(SynthConfig(seed=7, n_pubs=150), tmp_path / "library")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        p.name for p in library_dir.iterdir())
    for path in library_dir.iterdir():
        assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


_CORPUS_OPTIONS = {
    "--data-dir": (None, None, True, None),
    "--year-min": (2001, None, False, "int"),
    "--year-max": (2003, None, False, "int"),
    "--home-country": ("IT", None, False, "_country_code"),
}
_FORMATS = ("csv", "json", "md")

# option -> (default, choices, required, name of the type callable)
CLI_SURFACE = {
    "validate": _CORPUS_OPTIONS,
    "map": {
        **_CORPUS_OPTIONS,
        "--level": ("sds", ("sds", "uda"), False, None),
        "--metric": ("count", ("count", "pct_all", "pct_coauth", "per_researcher"), False, None),
        "--top": (10, None, False, "integer"),
        "--format": ("csv", _FORMATS, False, None),
        "--out": (None, None, False, None),
    },
    "edges": {**_CORPUS_OPTIONS, "--out": (None, None, False, None)},
    "compare": {
        **_CORPUS_OPTIONS,
        "--grouping": (None, ("sds_all_vs_collab", "sds_all_vs_industry",
                              "researchers_industry_vs_rest", "multidisc_all_vs_industry",
                              "multidisc_collab_vs_industry"), True, None),
        "--indicator": (None, ("ifpr", "o", "fss", "ii_sds", "ii_sci"), True, None),
        "--min-collab-pubs": (7, None, False, "integer"),
        "--format": ("json", _FORMATS, False, None),
        "--out": (None, None, False, None),
    },
    "multidisc": {
        **_CORPUS_OPTIONS,
        "--subset": ("all", ("all", "collab", "industry"), False, None),
        "--format": ("csv", _FORMATS, False, None),
        "--out": (None, None, False, None),
    },
    "synth": {
        "--seed": (None, None, True, "int"),
        "--pubs": (None, None, True, "int"),
        "--out": (None, None, True, None),
        "--universities": (12, None, False, "int"),
        "--firms": (20, None, False, "int"),
        "--public-orgs": (6, None, False, "int"),
        "--researchers": (120, None, False, "int"),
        "--journals": (30, None, False, "int"),
        "--industry-rate": (0.25, None, False, "float"),
        "--max-authors": (6, None, False, "int"),
        "--year-min": (2001, None, False, "int"),
        "--year-max": (2003, None, False, "int"),
    },
}


def test_cli_surface_is_pinned():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    surface = {}
    for name, parser in commands.choices.items():
        surface[name] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (option,) = action.option_strings
            choices = None if action.choices is None else tuple(action.choices)
            surface[name][option] = (action.default, choices, action.required,
                                     getattr(action.type, "__name__", None))
    assert surface == CLI_SURFACE


def test_synth_rejects_bad_config(capsys):
    code = main([
        "synth", "--seed", "1", "--pubs", "10", "--industry-rate", "1.5",
        "--out", "/tmp/never-created",
    ])
    assert code == 1
    assert "industry_rate" in capsys.readouterr().err


def test_missing_data_dir_is_reported(capsys):
    assert main(["map", "--data-dir", "/no/such/dir"]) == 1
    assert "missing input file" in capsys.readouterr().err


def test_unwritable_out_is_reported(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "edges.csv"
    assert main(["edges", "--data-dir", str(FIXTURE40), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--data-dir", "x", "--grouping", "bogus", "--indicator", "ifpr"],
    ["map", "--data-dir", "x", "--metric", "bogus"],
    ["nonsense"],
    ["compare", "--data-dir", "x", "--grouping", "sds_all_vs_collab", "--indicator", "bogus"],
    ["map", "--data-dir", "x", "--top", "-1"],
    ["map", "--data-dir", "x", "--top", "0"],
    ["map", "--data-dir", "x", "--home-country", "it"],
    ["map", "--data-dir", "x", "--home-country", ""],
    ["compare", "--data-dir", "x", "--grouping", "sds_all_vs_collab", "--indicator", "ifpr",
     "--min-collab-pubs", "-3"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# the fields each error type builds its text from
_FIELDS = {ParseError: ("path", "line", "message"), MissingFile: ("path",),
           DuplicateId: ("kind", "value"), DanglingReference: ("entity", "ref_id", "context"),
           DanglingUda: ("sds_id", "message")}


@pytest.mark.parametrize("name", MALFORMED)
def test_validate_reports_malformed_copy(name, tmp_path, capsys):
    argv, error = write_malformed(name, tmp_path / "data")
    assert main(argv) == 1
    assert capsys.readouterr().err == error
    # the library raises the row's type with that text, and its fields hold what the text says
    _, _, error_type, _ = MALFORMED[name]
    args = build_parser().parse_args(argv)
    with pytest.raises(error_type) as exc:
        args.func(args)
    assert f"error: {exc.value}\n" == error
    fields = [getattr(exc.value, field) for field in _FIELDS.get(exc.type, ())]
    if fields:
        assert str(exc.type(*fields)) == str(exc.value)
