"""Structural rules of the package source, checked on its syntax trees.

Every BLAS product runs on one BLAS thread under a pin that `distance` holds
(see cluster_sense.distance), so the pin is named nowhere else, and products
are written only where such a pin is held: in the two distance kernels,
pairwise_sq_distances and tile, which pin their own, and in silhouette's
per-cluster sums, whose products run inside for_each_tile's pin.
"""

import ast
from pathlib import Path

import cluster_sense

SOURCES = sorted(Path(cluster_sense.__file__).parent.glob("*.py"))
PRODUCT_SITES = {
    ("distance", "pairwise_sq_distances"),
    ("distance", "tile"),
    ("metrics", "_cluster_sums"),
}
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


def _exported(tree):
    """The names a module's __all__ lists."""
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for element in node.value.elts
    }


def test_every_imported_name_is_used():
    # A deletion that leaves its imports behind fails here.
    found = []
    for module, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{module}:{node.lineno}: {name}")
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


def test_no_module_reads_a_whole_file():
    # Config, data, label and summary files go through dataset.read_lines,
    # which holds one line at a time.
    found = {
        (module, getattr(top, "name", None))
        for module, tree in _trees().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("read_text", "read_bytes", "read", "readlines")
    }
    assert found == set()


def _dotted_name(node):
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _names_random(name):
    return name is not None and any(
        name == module or name.startswith(module + ".")
        for module in ("random", "numpy.random", "np.random")
    )


def test_every_random_draw_comes_from_seeding():
    # The master seed and a cell's coordinates fix every draw (README), which
    # holds while seeding.derive_rng builds every generator: no other module
    # calls numpy.random or imports from random or numpy.random. Naming
    # np.random.Generator in an annotation is not a call.
    found = []
    for module, tree in _trees().items():
        if module == "seeding":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [_dotted_name(node.func)]
            else:
                continue
            found.extend(f"{module}:{node.lineno}: {name}" for name in names if _names_random(name))
    assert found == []


def test_only_experiment_derives_seeds():
    # A sweep's seeds are derived in one module, from one table of codes:
    # every other module draws through seeding.derive_rng from seeds it is
    # given.
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        if module not in ("experiment", "seeding")
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "derive_seed"
        or isinstance(node, ast.Attribute) and node.attr == "derive_seed"
        or isinstance(node, ast.alias) and node.name == "derive_seed"
    ]
    assert found == []


def test_only_distance_imports_threads():
    # Threads run only in distance: the sweep's worker pool and the tiles,
    # whose commits it orders beside the BLAS pin. A thread started
    # elsewhere would escape both the pin and the commit order.
    found = [
        f"{module}:{node.lineno}: {name}"
        for module, tree in _trees().items()
        if module != "distance"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module or ""]
            if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] in ("threading", "concurrent", "_thread")
    ]
    assert found == []
