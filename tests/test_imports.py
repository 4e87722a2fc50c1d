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


def test_only_homs_reads_a_maps_private_fields():
    # the verifier and every other module learn a map's form from its
    # public view (`Homomorphism.table`, `offset`), so the choice of proof
    # lives in `homs` alone
    private = {"_table", "_rule", "_graph", "_then", "_kernel"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "homs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []
