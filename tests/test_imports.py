import ast
from pathlib import Path

import gcompat

PACKAGE = Path(gcompat.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "gcompat"):
                continue
            found.extend(f"{path.name}:{node.lineno} {alias.name}"
                         for alias in node.names
                         if alias.name.startswith("_"))
    assert found == []
