"""The package's public names: each module's __all__, re-exported once."""

import ostrowski
from ostrowski import bounds, core, kernel, means, quadrature, toolkit

MODULES = (core, kernel, bounds, toolkit, means, quadrature)


def test_all_is_the_modules_lists_with_no_duplicates():
    assert ostrowski.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(ostrowski.__all__)) == len(ostrowski.__all__)


def test_each_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(ostrowski, name) is obj, name
            # a function or a class is listed by the module that defines it
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_the_registry_imports_from_the_package():
    from ostrowski import THEOREMS, Theorem, evaluate

    assert evaluate("eq14", ostrowski.Interval(0.0, 1.0), da=1.0, db=1.0).value == 0.25
    assert all(isinstance(theorem, Theorem) for theorem in THEOREMS.values())
