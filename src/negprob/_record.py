"""Frozen record classes without ``dataclasses``.

``dataclasses`` imports ``inspect``: together about 7.5 ms of a fresh CLI
process (2-vCPU Xeon, Python 3.11). ``frozen_record`` gives a class the
methods that ``dataclass(frozen=True)`` generates for fields without
defaults, written as code the same way, so no call costs more: an
``__init__`` over the annotated fields in order (which then calls
``__post_init__`` where the class has one), ``__repr__``, ``__eq__`` and
``__hash__`` on the tuple of fields, ``__match_args__``, and a
``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.
"""

from __future__ import annotations


def frozen_record(cls):
    """Make cls a frozen record of its annotated fields (see the module
    docstring). A field's value is set once, in ``__init__``; ``__post_init__``
    may replace it with ``object.__setattr__``."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    fields = "".join(f"self.{name}," for name in names)
    others = "".join(f"other.{name}," for name in names)
    reprs = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    init = [f"  _setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        init.append("  self.__post_init__()")
    source = "\n".join([
        f"def __init__(self, {', '.join(names)}):",
        *init,
        "def __repr__(self):",
        f'  return f"{{self.__class__.__qualname__}}({reprs})"',
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return ({fields}) == ({others})",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash(({fields}))",
        "def __setattr__(self, name, value):",
        "  raise AttributeError(f'cannot assign to field {name!r}')",
        "def __delattr__(self, name):",
        "  raise AttributeError(f'cannot delete field {name!r}')",
    ])
    methods: dict = {}
    exec(source, {"_setattr": object.__setattr__}, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
