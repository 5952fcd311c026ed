"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hermlie"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private top-level function or class, with its line."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name or as an attribute."""
    return _used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    dead = [
        f"{name}.{definition} (line {line})"
        for name, tree in trees.items()
        for definition, line in _private_definitions(tree).items()
        if definition not in referenced
    ]
    assert not dead, f"private definitions no package module references: {', '.join(dead)}"


_CATCH_ALL = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[int]:
    """Lines of handlers that are bare or name Exception or BaseException."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(c, ast.Name) and c.id in _CATCH_ALL for c in caught):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_catch_all_handlers(path):
    """A handler names the errors it expects, so any other failure surfaces."""
    lines = _broad_handlers(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} catches every exception at lines {lines}"


def _function_imports(tree: ast.Module) -> list[int]:
    """Lines of import statements inside a function or method."""
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    """Every import is at the top of its module, where the reader looks."""
    lines = _function_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


def _hand_rolled_memos(tree: ast.Module) -> list[str]:
    """Functions that test an attribute against None and also assign it,
    and every ``*_memo`` attribute or string key, each with its line."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tested = {
            (ast.dump(node.left.value), node.left.attr)
            for node in ast.walk(fn)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
        }
        assigned = {
            (ast.dump(node.value), node.attr)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        found += [f"{fn.name} ({fn.lineno}) sets .{attr}" for _, attr in sorted(tested & assigned)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name.endswith("_memo"):
            found.append(f"{name} ({node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_memo_idiom(path):
    """A derived fact is a ``functools.cached_property`` of the object it
    belongs to: no lazy value behind a None test, and no memo attribute or key."""
    found = _hand_rolled_memos(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} keeps hand-rolled memos: {', '.join(found)}"


FRACTION_MATRIX_OPS = {"mat_mul", "mat_add", "mat_scale"}


def _fraction_matrix_ops(tree: ast.Module) -> list[str]:
    """Each use of ``linalg``'s Fraction matrix products and sums, as an
    attribute of the module or as an imported name, with its line."""
    found = [
        f"linalg.{node.attr} ({node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FRACTION_MATRIX_OPS
        and isinstance(node.value, ast.Name) and node.value.id == "linalg"
    ]
    found += [
        f"{alias.name} ({node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        for alias in node.names
        if alias.name in FRACTION_MATRIX_OPS
    ]
    return found


def test_generator_stays_on_numerators():
    """The instance generator builds its unitaries, bases and metrics on
    ``core``'s int numerators, never through Fraction matrix products."""
    found = _fraction_matrix_ops(ast.parse((SRC / "generators.py").read_text(encoding="utf-8")))
    assert not found, f"generators.py uses Fraction matrix operations: {', '.join(found)}"


def _lie_algebra_calls(tree: ast.Module) -> list[int]:
    """Lines that call ``LieAlgebra`` directly, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "LieAlgebra" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


@pytest.mark.parametrize("name", ["normal_forms.py", "generators.py"])
def test_algebras_built_through_make_algebra(name):
    """The normal forms and the generator emit structure constants to
    ``make_algebra``, which folds i > j and rejects a repeated entry; no
    bracket table is assembled by hand."""
    lines = _lie_algebra_calls(ast.parse((SRC / name).read_text(encoding="utf-8")))
    assert not lines, f"{name} calls LieAlgebra directly at lines {lines}"


def _complex_structure_calls(tree: ast.Module) -> list[int]:
    """Lines that call ``ComplexStructure`` directly, by name or as an
    attribute; its static constructors ``standard`` and ``from_pairs`` pass."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ComplexStructure" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


@pytest.mark.parametrize("name", ["search.py", "shear.py", "verify.py"])
def test_transpose_built_on_the_structure(name):
    """The search, the shear route and the harness reach J^T and every
    compatible basis through J (``ComplexStructure.transpose``, read by
    ``hermitian.coordinate_basis``), so each is built and validated once per
    J; none of them builds a complex structure of its own."""
    lines = _complex_structure_calls(ast.parse((SRC / name).read_text(encoding="utf-8")))
    assert not lines, f"{name} calls ComplexStructure directly at lines {lines}"


def _exact_inversions(tree: ast.Module) -> list[int]:
    """Lines that call ``linalg.inverse`` or ``linalg.solve_ints``, by name
    or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {"inverse", "solve_ints"}
    ]


@pytest.mark.parametrize("name", ["search.py", "shear.py", "verify.py"])
def test_coordinates_converted_by_hermitian(name):
    """The search, the shear route and the harness move between a metric g
    and the coordinates X of a kind (g, or H = g^-1 for balanced) only
    through ``hermitian.coordinates`` and ``hermitian.metric_at``; none of
    them inverts a metric exactly."""
    lines = _exact_inversions(ast.parse((SRC / name).read_text(encoding="utf-8")))
    assert not lines, f"{name} inverts exactly at lines {lines}"


def test_condition_kernel_defined_in_hermitian():
    """The direct kernel and its packing bound live next to the maps it
    packs (``condition_form``, ``balanced_inverse_form``, ``packed_kernel``)."""
    homes = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "condition_kernel"
    ]
    assert homes == ["hermitian.py"], homes
