"""The README's Python and JSON examples and the package's top-level names agree."""

import ast
import json
import re
from pathlib import Path

import xredge
from xredge.config import from_jsonable
from xredge.network import BandwidthProfile

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


def test_readme_json_blocks_parse_and_the_profile_example_loads():
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]
    profiles = [b for b in blocks if isinstance(b, dict) and "levels_mbps" in b]
    assert profiles, "the README has no ```json profile example"
    for data in profiles:
        assert isinstance(from_jsonable(BandwidthProfile, data, "README"), BandwidthProfile)
