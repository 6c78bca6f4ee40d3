"""Every name the demos and the README's python blocks use from the package
must exist: a deleted or renamed function would otherwise break them
silently, since no test runs them."""

import ast
import glob
import importlib
import os
import re

import pytest

import cirjump

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _sources():
    for path in DEMOS:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), fh.read()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    for i, block in enumerate(blocks):
        yield f"README.md python block {i}", block


SOURCES = dict(_sources())


def _used_names(tree):
    """(module, name) pairs: ``cj.X`` with ``import cirjump as cj``, and
    ``from cirjump.M import X``."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "cirjump"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            yield "cirjump", node.attr
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "cirjump":
            for a in node.names:
                yield node.module, a.name


def test_sources_found():
    assert len(DEMOS) >= 4
    assert any(k.startswith("README.md") for k in SOURCES)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_documented_names_resolve(source):
    used = sorted(set(_used_names(ast.parse(SOURCES[source]))))
    assert used, f"{source} uses no package names"
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{source} uses names that do not exist: {missing}"


def test_guard_sees_a_missing_name():
    tree = ast.parse("import cirjump as cj\ncj.no_such_name(1)\n"
                     "from cirjump.verify import no_such_helper\n")
    used = set(_used_names(tree))
    assert used == {("cirjump", "no_such_name"),
                    ("cirjump.verify", "no_such_helper")}
    assert not hasattr(cirjump, "no_such_name")
