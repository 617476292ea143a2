import ast
import sys
from pathlib import Path

import dsnadapt


def test_the_package_imports_only_numpy_and_the_standard_library():
    # the north star's "numpy-only": a relative import is the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "dsnadapt"}
    foreign = []
    for path in sorted(Path(dsnadapt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_the_package_keeps_to_its_line_budget():
    # ROADMAP item 11's budget for src/: lines as wc -l counts them, one per newline
    lines = sum(path.read_bytes().count(b"\n") for path in Path(dsnadapt.__file__).parent.glob("*.py"))
    assert lines <= 2180
