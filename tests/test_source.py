import ast
import os

import displab

SRC = os.path.dirname(displab.__file__)


def test_library_has_no_assert_statements():
    """`python -O` strips asserts, so no check in the library may be one."""
    found = []
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert modules  # the walk must see the package
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
