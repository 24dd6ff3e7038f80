"""The package's modules import only each other's public names.

A private name stays behind its module: numcore's definiteness rule, say, is
reached through numcore's public functions, not through another module's
helper. This parses every module with ast, so it needs no import. Importing
the CLI also stays light: it loads no module that only some paths use.
"""

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_heavy_module():
    """Importing the CLI, in a fresh interpreter, loads none of scipy, concurrent.futures or logging.

    Set-up time is an end-to-end cost: one module-level concurrent.futures
    import once added 8% to it, and scipy.special alone takes about 0.2 s.
    """
    code = (
        "import sys\n"
        "import stealthimpact.cli\n"
        "print(sorted(m for m in ('scipy', 'concurrent.futures', 'logging') if m in sys.modules))\n"
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
