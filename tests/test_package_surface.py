"""The package exports only what its callers import from it: `decide`,
`FqContext` and `RunConfig`.  Everything else is imported from its module,
so no test, benchmark file or README example may import another name from
the package itself."""

import ast
import pkgutil
import re
from pathlib import Path

import laurentdecide

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ["FqContext", "RunConfig", "decide"]
SUBMODULES = {m.name for m in pkgutil.iter_modules(laurentdecide.__path__)}


def test_the_package_exports_three_names():
    assert laurentdecide.__all__ == EXPORTS
    assert all(getattr(laurentdecide, name, None) is not None for name in EXPORTS)
    assert {"frontend", "resolve", "truncation", "ff"} <= SUBMODULES


def _sources():
    for folder in ("tests", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.DOTALL)):
        yield f"README.md block {k}", block


def _package_names(tree):
    """Names taken from the package itself: `from laurentdecide import X`
    and `laurentdecide.X` on the bare package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "laurentdecide" and not node.level:
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "laurentdecide" and not node.attr.startswith("__")):
            yield node.attr


def test_callers_import_only_the_exports_or_submodules_from_the_package():
    allowed = set(EXPORTS) | SUBMODULES
    sources = list(_sources())
    assert any(where.startswith("README") for where, _ in sources)
    stray = [(where, name) for where, text in sources
             for name in _package_names(ast.parse(text)) if name not in allowed]
    assert stray == []


def test_the_scan_sees_a_stray_import():
    tree = ast.parse("from laurentdecide import decide, resolve, Verdict\nlaurentdecide.parse(s)")
    assert list(_package_names(tree)) == ["decide", "resolve", "Verdict", "parse"]
