"""Oracle-parity checker: every fast path must have an equivalence test.

The simulator keeps its pre-optimization implementations in-tree as
*oracles* (``engine="reference"``, ``mem_front_end="reference"``) and
stakes every fast-path PR on bit-identity property tests against them.
That contract silently erodes if a new engine or memory front end is
registered without being added to the parametrized equivalence suites —
nothing fails, the new implementation just runs unvalidated.

ORA001 cross-references the simulator's implementation registries
(``ENGINES = (...)`` class attributes and the ``MEMORY_FRONT_ENDS``
mapping under ``sim/``) against the test suite: every registered
implementation name must appear in at least one *parametrized* test —
either a string inside a ``pytest.mark.parametrize`` decorator, or a
string inside a literal tuple/list iterated by a ``for`` loop in a
test function (the equivalence grid tests iterate the full
engine x front-end product that way).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.core import (
    Checker,
    Finding,
    ParsedFile,
    ProjectContext,
    register,
)

#: Registry variable names scanned for implementation names.
REGISTRY_NAMES = {
    "ENGINES": "engine",
    "MEMORY_FRONT_ENDS": "memory front end",
}


def _registry_entries(
    pf: ParsedFile,
) -> Iterator[tuple[str, str, int, int]]:
    """(kind, implementation name, line, col) for every registry entry
    declared in a ``sim/`` module."""
    if not pf.in_dirs(("sim",)):
        return
    for node in ast.walk(pf.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            kind = REGISTRY_NAMES.get(target.id)
            if kind is None:
                continue
            value = node.value
            if isinstance(value, (ast.Tuple, ast.List)):
                elements = value.elts
            elif isinstance(value, ast.Dict):
                elements = [k for k in value.keys if k is not None]
            else:
                continue
            for element in elements:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    yield kind, element.value, node.lineno, node.col_offset


def _covered_names(test_files: list[ParsedFile]) -> set[str]:
    """String constants exercised by parametrized tests: arguments of
    ``pytest.mark.parametrize(...)`` calls, and elements of literal
    tuples/lists iterated by ``for`` loops inside test functions."""
    covered: set[str] = set()
    for pf in test_files:
        in_test_function: list[ast.AST] = []

        def visit(node: ast.AST) -> None:
            is_test_fn = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.startswith("test")
            if is_test_fn:
                in_test_function.append(node)
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "parametrize":
                    for arg in node.args:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Constant) and isinstance(
                                sub.value, str
                            ):
                                covered.add(sub.value)
            if (
                isinstance(node, (ast.For, ast.comprehension))
                and in_test_function
                and isinstance(node.iter, (ast.Tuple, ast.List))
            ):
                for element in node.iter.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        covered.add(element.value)
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_test_fn:
                in_test_function.pop()

        visit(pf.tree)
    return covered


@register
class OracleParityChecker(Checker):
    name = "oracle-parity"
    rules = {
        "ORA001": "registered implementation lacks a parametrized "
                  "equivalence test",
    }

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        entries = [
            (pf, kind, name, line, col)
            for pf in ctx.files
            for kind, name, line, col in _registry_entries(pf)
        ]
        if not entries:
            return
        covered = _covered_names(ctx.test_files)
        for pf, kind, name, line, col in entries:
            if name in covered:
                continue
            yield Finding(
                pf.rel, line, col, "ORA001",
                f"{kind} {name!r} is registered but never appears in a "
                "parametrized equivalence test (pytest.mark.parametrize "
                "or a literal-tuple for-loop in a test function); every "
                "fast-path implementation must be property-tested against "
                "its oracle",
                self.name,
            )
