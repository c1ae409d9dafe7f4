import ast
import re
import shlex
from pathlib import Path

import collabmap
from collabmap.cli import main

PACKAGE = Path(collabmap.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_package_root_holds_only_docstring():
    # callers import from the submodules; the root re-exports nothing
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1, [ast.dump(node)[:60] for node in tree.body[1:]]


def _relative_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


KNOWN_UNREACHED = []


def test_every_module_reachable_from_cli():
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_relative_imports(module))
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(modules - reached) == KNOWN_UNREACHED


def test_no_import_inside_a_function():
    # every import sits at module level (a TYPE_CHECKING block is one), where
    # test_every_module_reachable_from_cli sees it
    inside = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside.update(f"{path.name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(inside) == []


def test_harness_imports_no_analysis_module():
    # the oracles must not share code with what they check
    assert set(_relative_imports("harness")) <= {"corpus", "errors"}


def test_readme_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_cli_examples_run(monkeypatch, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("## CLI", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", cli_section, re.DOTALL | re.MULTILINE).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("collabmap ")]
    assert len(commands) == 6
    monkeypatch.chdir(ROOT)
    for command in commands:
        argv = shlex.split(command)[1:]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
        assert main(argv) == 0, command
