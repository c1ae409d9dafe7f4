import ast
import importlib
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


def _is_type_checking_block(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _runtime_nodes(node):
    # every node except those under `if TYPE_CHECKING:`, which never runs
    for child in ast.iter_child_nodes(node):
        if not _is_type_checking_block(child):
            yield child
            yield from _runtime_nodes(child)


def _relative_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_module_reachable_from_cli():
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(_relative_imports(module))
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(modules - reached) == []


def test_no_import_cycle():
    # corpus imports views only under TYPE_CHECKING, the one allowed cycle
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    graph = {m: set(_relative_imports(m)) for m in modules}
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path[path.index(module):] + [module])
        if module not in done:
            path.append(module)
            for imported in sorted(graph[module]):
                visit(imported)
            path.pop()
            done.add(module)

    for module in modules:
        visit(module)


# each module's layer; a module imports at run time only from lower layers
LAYERS = {
    "errors": 0,
    "corpus": 1,
    "views": 2, "harness": 2,
    "stats": 3,
    "report": 4,
    "cli": 5,
}


def test_imports_go_down_the_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(LAYERS) == modules
    upward = [f"{module} -> {imported}" for module in modules
              for imported in sorted(set(_relative_imports(module)))
              if LAYERS[imported] >= LAYERS[module]]
    assert upward == []


def test_no_import_inside_a_function():
    # every import sits at module level (a TYPE_CHECKING block is one), where
    # the reachability and cycle tests see it if it runs
    inside = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside.update(f"{path.name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(inside) == []


# public names that nothing in src/ uses yet, each with the ROADMAP item that
# makes a command reach it or moves it out of src/
UNREFERENCED_ALLOWED = {
    "count_collaborations": "item 1: collabmap bundle reports the m x n case counts",
    "render_all": "item 1: collabmap bundle writes the tables render_all builds",
    "oracle_collab_counts": ("item 2: perfbench/run.py imports it until perfbench/checks.py "
                             "counts collaborations itself"),
}


def test_every_public_name_is_used_in_src():
    # a public top-level function or class that no name, attribute or import
    # in src/ uses is reached only from outside the package; docstrings do
    # not count
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used) == sorted(UNREFERENCED_ALLOWED)


def test_harness_imports_no_analysis_module():
    # the oracles must not share code with what they check: harness imports
    # only corpus constants and the errors, tests/oracles.py nothing at all
    assert set(_relative_imports("harness")) <= {"corpus", "errors"}
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "collabmap"] == []


def test_kernel_modules_call_no_builtin_sum():
    # from Python 3.12 on, the builtin sum adds floats with compensated
    # summation; the statistics add left to right through views.total, so
    # they give the same bits on every interpreter (test_interpreters.py
    # checks the bits)
    calls = []
    for module in ("stats", "views"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        calls += [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum"]
    assert calls == []


def test_perfbench_imports_exist():
    # a module or name perfbench imports from the package that is gone fails
    # every benchmark run, including the imports inside its functions
    checked = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "collabmap"):
                for alias in node.names:
                    if node.module == "collabmap":
                        importlib.import_module(f"collabmap.{alias.name}")
                    else:
                        module = importlib.import_module(node.module)
                        assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    checked.add((node.module, alias.name))
    assert ("collabmap.harness", "oracle_collab_counts") in checked


# the test modules, test_<m> for each m: one per src/ module that has tests, then
# the ones that cut across modules
TESTED_MODULES = ("corpus", "views", "stats", "report", "harness", "cli")
CROSS_CUTTING = ("acceptance", "metamorphic", "reach", "package", "interpreters")


def test_test_modules_mirror_src_and_import_no_test_module():
    # shared builders live in conftest.py, so no test module leans on another
    tests = ROOT / "tests"
    assert sorted(p.stem for p in tests.glob("test_*.py")) == sorted(
        f"test_{m}" for m in TESTED_MODULES + CROSS_CUTTING)
    assert {p.stem for p in PACKAGE.glob("*.py")} >= set(TESTED_MODULES)
    imported = []
    for path in sorted(tests.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append((path.name, node.module or ""))
    assert [pair for pair in imported if pair[1].startswith("test_")] == []


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
