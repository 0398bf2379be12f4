"""Package layout: the modules of blockstat share only public names."""

import ast
import pathlib

import blockstat

PACKAGE = pathlib.Path(blockstat.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            sibling = isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 1 or node.module.startswith("blockstat.")
            )
            if sibling:
                found += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found
