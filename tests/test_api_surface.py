"""Size of the public API and of the code: parameters and dataclass fields that
have a default, the names of the ``mmdist`` namespace, and the lines of
``src/mmdist/*.py``.

Defaults are counted on every public (no leading underscore) function, class
and method defined in each ``mmdist`` module.  A new option, a new name or a
new line raises a count, so its ceiling has to be raised here too, in plain
sight.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import mmdist

MAX_DEFAULTED = 32
MAX_NAMESPACE = 57
#: newline characters in ``src/mmdist/*.py``, as ``wc -l`` counts them
MAX_SOURCE_LINES = 3551


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
    assert "mmdist.box.box_distance(seed)" in names
    assert "mmdist.lipschitz.Lip1Set.vertices(max_support)" in names  # a method


def test_namespace_size():
    # a name removed from the package namespace cannot come back silently
    names = sorted(n for n, o in vars(mmdist).items() if not n.startswith("_") and not inspect.ismodule(o))
    assert len(names) <= MAX_NAMESPACE, "\n".join(names)
    assert "box_distance" in names and "validate_pair" not in names


def test_source_line_count():
    # the measure of design quality: the same behaviour from less code
    lines = {p.name: p.read_bytes().count(b"\n") for p in Path(mmdist.__file__).parent.glob("*.py")}
    assert sum(lines.values()) <= MAX_SOURCE_LINES, lines
