"""Structural rules of the package source, checked on its syntax trees.

Every BLAS product runs on one BLAS thread under a pin that `distance` holds
(see cluster_sense.distance), so the pin is named nowhere else, and products
are written only where such a pin is held: in the distance kernel, which
pins its own, and in silhouette, whose per-cluster products run inside
for_each_row_block's pin.
"""

import ast
from pathlib import Path

import cluster_sense

SOURCES = sorted(Path(cluster_sense.__file__).parent.glob("*.py"))
PRODUCT_SITES = {("distance", "pairwise_sq_distances"), ("metrics", "silhouette")}
# numpy functions that hand a product to BLAS, as the @ operator does.
PRODUCT_CALLS = {"dot", "inner", "matmul", "tensordot", "vdot"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _is_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PRODUCT_CALLS
    )


def test_no_module_imports_a_private_name_of_a_sibling():
    found = [
        f"{module}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert found == []


def test_blas_pin_is_named_only_in_distance():
    found = [
        path.name
        for path in SOURCES
        if path.stem != "distance" and "_single_blas_thread" in path.read_text()
    ]
    assert found == []


def test_products_are_written_only_where_a_pin_is_held():
    found = []
    for module, tree in _trees().items():
        for top in tree.body:
            site = (module, getattr(top, "name", None))
            found.extend(
                f"{module}:{node.lineno} in {site[1]}"
                for node in ast.walk(top)
                if _is_product(node) and site not in PRODUCT_SITES
            )
    assert found == []


def test_no_module_splits_text_with_splitlines():
    # str.splitlines also ends a line at U+2028, U+0085 and other separators;
    # text readers iterate the open file through dataset.read_lines instead.
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]
    assert found == []


def test_no_module_reads_the_environment():
    # A sweep is fixed by its config file; a second settings source would
    # let two runs of one config differ.
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name in ("environ", "getenv") for alias in node.names)
        )
    ]
    assert found == []


def test_only_the_summary_reader_reads_a_whole_file():
    # Config, data and label files go through dataset.read_lines, which holds
    # one line at a time. report's summary.csv is read whole, for csv, which
    # parses records rather than lines.
    found = {
        (module, getattr(top, "name", None))
        for module, tree in _trees().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("read_text", "read_bytes", "read", "readlines")
    }
    assert found == {("cli", "_read_summary")}
