"""The README's Python examples must import: every ``import`` and
``from ... import`` in a ```` ```python ```` block of ``README.md`` names
a module and attribute that exist, so a renamed or deleted public name
cannot leave a stale snippet behind."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks():
    """The source of every python block, in README order."""
    text = README.read_text(encoding="utf-8")
    return [m.group(1) for m in _BLOCK.finditer(text)]


def imports_of(source):
    """``(module, attribute or None)`` per name the block imports."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.module, alias.name) for alias in node.names)
    return out


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS
    assert any(imports_of(source) for source in BLOCKS)


@pytest.mark.parametrize(
    "source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))]
)
def test_readme_block_imports_resolve(source):
    for module_name, attr in imports_of(source):
        module = importlib.import_module(module_name)
        if attr is None:
            continue
        if not hasattr(module, attr):
            # ``from package import submodule`` is an import too.
            importlib.import_module(f"{module_name}.{attr}")
