"""The public API takes no evaluation knobs: series tolerances and the pole
tolerance are module constants, so no exported callable accepts them.  Nor
does it carry code only the tests call."""

import inspect

import hyplegendre


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
        for name in ("inversion_15_8_6", "quadratic_15_8_20", "quadratic_path_check"):
            assert not hasattr(module, name), (module.__name__, name)
    assert "all_root_choices" not in inspect.signature(draw_nondegenerate).parameters
