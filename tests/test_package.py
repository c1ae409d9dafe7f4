import ast
from pathlib import Path

import collabmap

PACKAGE = Path(collabmap.__file__).parent


def test_exports_resolve_once():
    assert len(collabmap.__all__) == len(set(collabmap.__all__))
    for name in collabmap.__all__:
        assert getattr(collabmap, name, None) is not None, name


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
