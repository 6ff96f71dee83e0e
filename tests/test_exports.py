"""The package re-exports each public name of its modules exactly."""

import loblab
from loblab import analytics, limit_processes


def test_module_exports_are_defined_and_reexported():
    for module in (analytics, limit_processes):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert name in loblab.__all__, name
            assert getattr(loblab, name) is getattr(module, name), name
    for name in loblab.__all__:
        assert hasattr(loblab, name), name
