"""Size of the public API: parameters and dataclass fields that have a default.

Counted on every public (no leading underscore) function, class and method
defined in each ``mmdist`` module.  A new option raises this number, so it
has to be raised here too, in plain sight.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import mmdist

MAX_DEFAULTED = 34


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def defaulted_public_names() -> list[str]:
    out = []
    for info in pkgutil.iter_modules(mmdist.__path__):
        mod = importlib.import_module(f"mmdist.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out += [f"{mod.__name__}.{name}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    out += [
                        f"{mod.__name__}.{name}.{f.name}"
                        for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    ]
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        out += [f"{mod.__name__}.{name}.{mname}({p})" for p in _defaulted(meth)]
    return out


def test_defaulted_public_parameters_and_fields():
    names = defaulted_public_names()
    assert len(names) <= MAX_DEFAULTED, "\n".join(names)


def test_counter_sees_known_defaults():
    names = defaulted_public_names()
    assert "mmdist.box.box_pair(max_cells)" in names
    assert "mmdist.box.BoxResult.coupling" in names
    assert "mmdist.core.pullback_pair(tol)" in names
    assert "mmdist.lipschitz.Lip1Set.vertices(max_support)" in names  # a method
