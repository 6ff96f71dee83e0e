"""The package re-exports each public name of its modules exactly."""

import loblab
from loblab import analytics, limit_processes, lob_simulator, model_params

MODULES = (model_params, lob_simulator, limit_processes, analytics)


def test_module_exports_are_defined_and_reexported():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert name in loblab.__all__, name
            assert getattr(loblab, name) is getattr(module, name), name
    for name in loblab.__all__:
        assert hasattr(loblab, name), name
    # the package lists the modules' names, each once
    assert len(set(loblab.__all__)) == len(loblab.__all__)
    assert sorted(loblab.__all__) == sorted(
        name for module in MODULES for name in module.__all__)
