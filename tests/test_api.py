"""The public API takes no evaluation knobs: series tolerances and the pole
tolerance are module constants, so no exported callable accepts them.  Nor
does it carry code only the tests call, or imports no code uses."""

import ast
import inspect
from pathlib import Path

import pytest

import hyplegendre
from hyplegendre import Hyp2F1


def test_no_exported_callable_takes_a_tolerance_knob():
    assert not hasattr(hyplegendre, "EvalConfig")
    assert not hasattr(hyplegendre, "DEFAULT_CONFIG")
    checked = 0
    for name in dir(hyplegendre):
        obj = getattr(hyplegendre, name)
        if name.startswith("_") or not callable(obj) or (
                inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        params = inspect.signature(obj).parameters
        assert not {"cfg", "pole_tol"} & set(params), name
        checked += 1
    assert checked > 20


def test_test_only_identities_and_knobs_are_not_exported():
    import hyplegendre.hypergeom
    import hyplegendre.legendre_families
    from hyplegendre.rng import draw_nondegenerate

    for module in (hyplegendre, hyplegendre.hypergeom, hyplegendre.legendre_families):
        for name in ("inversion_15_8_6", "quadratic_15_8_20", "quadratic_path_check",
                     "connection_15_8_4", "hyp2f1_derivative"):
            assert not hasattr(module, name), (module.__name__, name)
    assert "all_root_choices" not in inspect.signature(draw_nondegenerate).parameters


def test_hyp2f1_takes_only_its_triple():
    # terminating_degree is derived from a and b, never given
    assert list(inspect.signature(Hyp2F1).parameters) == ["a", "b", "c"]
    with pytest.raises(TypeError):
        Hyp2F1(0.5, 0.5, 1.5, 7)
    p = Hyp2F1(-2.0, 0.5, 1.5)
    assert p.terminating_degree == 2 and Hyp2F1(0.5, 0.5, 1.5).terminating_degree is None
    assert repr(p) == "Hyp2F1(a=-2.0, b=0.5, c=1.5, terminating_degree=2)"
    assert p == Hyp2F1(-2.0, 0.5, 1.5) and hash(p) == hash(Hyp2F1(-2.0, 0.5, 1.5))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


PACKAGE = Path(hyplegendre.__file__).parent
TESTS = Path(__file__).parent


@pytest.mark.parametrize("path", sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list(TESTS.glob("*.py"))),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    # no linter runs here: a name a module imports must appear in it
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, (path.name, unused)
