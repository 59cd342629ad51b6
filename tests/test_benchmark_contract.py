"""The names the benchmark and the test oracles take from heterobell.

The benchmark in perfbench/ reads the package by import, by attribute and,
for its memo.* metrics, through cache_info() on seven functions.  A renamed
name turns its runs into errors, and a memo without cache_info() turns its
metrics into null, so this test fails first.  The names are read from the
readers' source, so the test follows them.
"""
import ast
import importlib
import os

import heterobell

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READERS = (
    "perfbench/workloads.py",
    "perfbench/child.py",
    "tests/oracles.py",
    "tests/sympoly_oracle.py",
)


def _tree(relpath: str) -> ast.Module:
    with open(os.path.join(ROOT, relpath)) as fh:
        return ast.parse(fh.read())


def _names_taken(relpath: str) -> set[str]:
    names = set()
    for node in ast.walk(_tree(relpath)):
        if isinstance(node, ast.ImportFrom) and node.module == "heterobell":
            names |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "heterobell"
        ):
            names.add(node.attr)
    return names


def _memo_names() -> tuple[str, ...]:
    for node in ast.walk(_tree("perfbench/child.py")):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["MEMOS"]:
            return ast.literal_eval(node.value)
    return ()


def _resolves(name: str) -> bool:
    # `from heterobell import cli` takes a submodule, not an attribute
    try:
        return hasattr(heterobell, name) or bool(importlib.import_module(f"heterobell.{name}"))
    except ImportError:
        return False


def test_every_name_the_readers_take_exists():
    taken = {relpath: _names_taken(relpath) for relpath in READERS}
    assert {"Route", "partial_bell", "prob_hetero_stirling"} <= taken["perfbench/workloads.py"]
    assert {"Bernoulli", "Poisson"} <= taken["tests/oracles.py"]
    assert {"raw_moment", "deg_rising_poly"} <= taken["tests/sympoly_oracle.py"]
    missing = {
        relpath: sorted(name for name in names if not _resolves(name))
        for relpath, names in taken.items()
    }
    assert missing == {relpath: [] for relpath in READERS}


def test_memo_functions_expose_cache_info():
    memos = _memo_names()
    assert len(memos) == 7
    for name in memos:
        info = getattr(heterobell, name).cache_info()
        assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0, name
