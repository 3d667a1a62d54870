"""The package's public surface is what its demos and the README quick start import."""

import ast
import re
from pathlib import Path

import uavex

ROOT = Path(__file__).resolve().parent.parent

# Public beyond the examples: perfbench drives the full-set-rate sweep through
# the package, and cluster_network raises InfeasibleClusterCount to callers.
ALSO_PUBLIC = {"sweep_full_set_rate", "InfeasibleClusterCount"}


def names_imported_from_uavex(source):
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "uavex"
        for alias in node.names
    }


def example_sources():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Quick start \(library\)\s*```python\n(.*?)```", readme, re.S)
    assert quick_start, "README has no quick-start python block"
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos, "no demos found"
    return [quick_start.group(1)] + [path.read_text(encoding="utf-8") for path in demos]


def test_all_is_exactly_what_the_examples_import():
    imported = set()
    for source in example_sources():
        imported |= names_imported_from_uavex(source)
    assert imported <= set(uavex.__all__), sorted(imported - set(uavex.__all__))
    assert set(uavex.__all__) == imported | ALSO_PUBLIC, sorted(
        set(uavex.__all__) - imported - ALSO_PUBLIC
    )
    assert len(uavex.__all__) == len(set(uavex.__all__))
    for name in uavex.__all__:
        assert hasattr(uavex, name), name
