"""The public API takes no evaluation knobs: series tolerances and the pole
tolerance are module constants, so no exported callable accepts them."""

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
