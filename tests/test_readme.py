"""README's examples run as written, and its Python ones name the package's root API.

The ```python blocks run in order in one namespace, as a reader would type
them. The names their ``from stealthimpact import`` lines bring in, plus
``ImpactReport`` (the type of every ``entry.report`` they print), are exactly
``stealthimpact.__all__``, so the root and the docs cannot drift apart. Every
``stealthimpact assess`` line of the ```sh blocks runs through ``cli.main``.
"""

import ast
import re
import shlex
from pathlib import Path

import stealthimpact
from stealthimpact import cli

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


def _assess_lines() -> list[list[str]]:
    """The arguments of each `stealthimpact assess` line of README's sh blocks, continuations joined."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:2] == ["stealthimpact", "assess"]:
                lines.append(argv[1:])
    return lines


def test_readme_assess_lines_run(tmp_path, capsys):
    """Each line exits 0 or 4 with nothing on stderr; --out goes to a temporary directory."""
    lines = _assess_lines()
    assert len(lines) >= 8
    for argv in lines:
        if "my_scenario.json" in argv:  # a placeholder for the reader's own scenario file
            continue
        out = None
        if "--out" in argv:
            at = argv.index("--out") + 1
            out = argv[at] = str(tmp_path / argv[at])
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_ALL_ZERO), argv
        printed = capsys.readouterr()
        assert printed.err == "", argv
        assert (Path(out).read_text() if out else printed.out).strip(), argv
