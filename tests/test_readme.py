"""The README's Python examples and the package's top-level names agree."""

import ast
import re
from pathlib import Path

import xredge

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_imports() -> set[str]:
    """Every name a ```python block of the README imports from `xredge`."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "xredge":
                names.update(alias.name for alias in node.names)
    return names


def test_readme_imports_only_top_level_names():
    names = readme_imports()
    assert names, "the README has no `from xredge import ...` example"
    assert names <= set(xredge.__all__)


def test_every_top_level_name_resolves():
    assert all(hasattr(xredge, name) for name in xredge.__all__)
