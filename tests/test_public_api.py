"""Every public name and every function the span tracer wraps must exist.

``perfbench/tracing.py`` replaces the functions and class methods it lists
in ``TRACED``; a rename or a deletion in the library would otherwise only
show when a traced benchmark run fails.
"""

import importlib
import importlib.util
import pathlib

import rootchi

_TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_all_names_resolve():
    missing = [name for name in rootchi.__all__ if not hasattr(rootchi, name)]
    assert missing == []


def test_traced_functions_and_methods_exist():
    """Looked up as the tracer does: ``getattr`` on the module and the class's
    own ``__dict__``, so an inherited method does not count."""
    missing = []
    for module_name, functions, classes in _traced().values():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{f}" for f in functions
                    if not callable(getattr(module, f, None))]
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            own = vars(cls) if cls is not None else {}
            missing += [f"{module_name}.{cls_name}.{m}" for m in methods
                        if not callable(own.get(m))]
    assert missing == []

