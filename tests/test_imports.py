"""The package's modules import only each other's public names.

A private name stays behind its module: numcore's definiteness rule, say, is
reached through numcore's public functions, not through another module's
helper. This parses every module with ast, so it needs no import.
"""

import ast
from pathlib import Path

import stealthimpact

PACKAGE = Path(stealthimpact.__file__).resolve().parent


def _private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stealthimpact")):
            found += [f"{'.' * node.level}{node.module or ''}:{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # the check sees a private name in either form of a package import
    assert _private_imports("from .distrib import _radius, kl_budget") == [".distrib:_radius"]
    assert _private_imports("from stealthimpact.numcore import _erfc") == ["stealthimpact.numcore:_erfc"]
    assert _private_imports("from . import numcore\nfrom __future__ import annotations") == []
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    bad = {m.name: names for m in modules if (names := _private_imports(m.read_text()))}
    assert bad == {}
