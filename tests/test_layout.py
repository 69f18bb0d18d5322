"""Source layout rules that no behaviour test would notice."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import schurdefect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "schurdefect"


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_census_imports_numpy():
    # the exact stack is pure Python; a numpy twin of one of its kernels
    # would need an agreement test of its own
    users = {path.name for path in SRC.glob("*.py")
             if any(m == "numpy" or m.startswith("numpy.") for m in _imports(path))}
    assert users == {"census.py"}


# the only functions that read the bracket view (`.brackets`), which is
# rebuilt off the ad table on each read: it is only copied, hashed and
# written out
_TABLE_READERS = {("algebra.py", "LieAlgebra.__hash__"), ("algebra.py", "direct_sum"),
                  ("serialize.py", "algebra_to_document"), ("serialize.py", "dumps")}


def _attribute_loads(node, attr, scope=""):
    """(scope, line) of each read of `.attr` under `node`, the scope being
    the dotted names of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_loads(child, attr, f"{scope}.{child.name}" if scope else child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr == attr
                and isinstance(child.ctx, ast.Load)):
            yield scope, child.lineno
        yield from _attribute_loads(child, attr, scope)


def test_only_the_ad_table_reads_the_structure_constants():
    # every other reader goes through the ad table (`LieAlgebra._ads`), so
    # the structure constants are read one way, 0-based
    stray = [(path.name, scope, line) for path in sorted(SRC.glob("*.py"))
             for scope, line in _attribute_loads(
                 ast.parse(path.read_text(), filename=str(path)), "brackets")
             if (path.name, scope) not in _TABLE_READERS]
    assert not stray


def test_import_leaves_numpy_unloaded():
    # numpy is most of the package's import time and only a census needs
    # it; multiprocessing only a census that starts workers
    code = ("import sys, schurdefect; "
            "assert not {'numpy', 'multiprocessing'} & set(sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_traced_mode_installs():
    # the benchmark's traced mode wraps functions by name (spans.LAYERS), and
    # install raises once one of those names stops resolving
    code = """if True:
        import schurdefect, spans
        tracer = spans.Tracer()
        tracer.install(schurdefect)
        from schurdefect import QQ, catalog, classify_t012, direct_sum, report
        L = direct_sum(catalog.get("L5_6", QQ), catalog.abelian(QQ, 1))
        assert classify_t012(L).label() == "L5_6+A(1)"
        report(L)
        layer = tracer.per_layer(1)
        assert layer["classify.calls"]["value"] == 1
        assert layer["invariants.report.calls"]["value"] >= 2
    """
    paths = (str(SRC.parent), str(ROOT / "schurbench"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _unused_imports(path):
    """Names a module imports and never reads; a name listed in `__all__`
    counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    imported = [(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # no linter runs on this package, and a stray import would hide which
    # modules really depend on which
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := _unused_imports(path))}
    assert not unused


def _private_definitions(tree):
    """The private (`_name`, not dunder) functions and classes defined at
    module level or as methods of a module-level class."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.startswith("__")):
                yield d.name


# the package's public names: adding or removing one is a change to the
# library API, made here on purpose and justified with the change
_PUBLIC = [
    "CatalogEntry", "CensusRow", "CensusSummary", "ClassificationResult",
    "Field", "GF", "Homomorphism", "InvariantReport", "LieAlgebra", "Matrix",
    "PrimeField", "QQ", "RationalField", "Subspace", "abelian",
    "adjoint_matrix", "algebra_from_tensor", "algebra_to_document", "bracket",
    "center", "centralizer", "change_basis", "check_jacobi", "classify_t012",
    "complement", "decode_tensor", "derived_subalgebra", "direct_sum",
    "document_to_algebra", "dumps", "encode_tensor", "enumerate_algebras",
    "filiform", "get", "heisenberg", "is_nilpotent", "kernel", "list_all",
    "loads", "lower_central_series", "min_generators", "moneyhun_check",
    "new_algebra", "nilpotency_class", "preimage", "product_subspace",
    "quotient", "recognize_heisenberg", "report", "rref", "second_center",
    "stem_decomposition", "subspace_intersect", "subspace_sum", "t_invariant",
    "upper_central_series", "verify_bounds",
]


def test_public_surface_is_pinned():
    assert sorted(schurdefect.__all__) == _PUBLIC
    assert all(hasattr(schurdefect, name) for name in _PUBLIC)


def test_no_dead_private_functions():
    # a private helper that nothing reads is dead code left behind by a
    # rewrite; a read is a name or an attribute anywhere in the package
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    dead = {name: unread for name, tree in trees.items()
            if (unread := sorted(set(_private_definitions(tree)) - read))}
    assert not dead
