"""README's Python examples run as written, and they name the package's root API.

The ```python blocks run in order in one namespace, as a reader would type
them. The names their ``from stealthimpact import`` lines bring in, plus
``ImpactReport`` (the type of every ``entry.report`` they print), are exactly
``stealthimpact.__all__``, so the root and the docs cannot drift apart.
"""

import ast
import re
from pathlib import Path

import stealthimpact

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def _root_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "stealthimpact" and not node.level
        for alias in node.names
    }


def test_readme_examples_run_and_name_the_root_api(capsys):
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert isinstance(namespace["entry"].report, stealthimpact.ImpactReport)
    assert len(namespace["configs"]) > 1

    documented = set().union(*map(_root_imports, blocks)) | {"ImpactReport"}
    assert set(stealthimpact.__all__) == documented
