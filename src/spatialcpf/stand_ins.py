"""Stand-in modules that spare an import the packages a run never uses.

A loader registers stand_in modules in sys.modules for the length of one
import (standing_in), so the module it imports binds the few names a
stand-in holds instead of importing a heavy package it reads only off the
run's path. graph loads scipy's kd-tree extension this way, and iforest
numpy.random.
"""

from __future__ import annotations

import importlib
import sys
import threading
import types
from contextlib import contextmanager

# Guards the check-and-remove of a stand-in in sys.modules, so that no
# thread removes the real module another thread has just imported.
_LOCK = threading.Lock()


def stand_in(name: str, **attrs) -> types.ModuleType:
    """A module to register as name while another module loads, holding
    attrs. Asked for any other name, it takes itself out of sys.modules and
    returns the real module's attribute, so a module that binds more at
    start-up, or a thread that imports name meanwhile, still gets real
    objects. Dunder names are not forwarded: a from-import probes __path__
    before it asks for the names it imports."""
    module = types.ModuleType(name)
    vars(module).update(attrs)

    def forward(attr: str):
        if attr.startswith("__") and attr.endswith("__"):
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        unregister(module)
        return getattr(importlib.import_module(name), attr)

    module.__getattr__ = forward
    return module


def unregister(module: types.ModuleType) -> None:
    """Take module out of sys.modules if it is still registered there."""
    with _LOCK:
        if sys.modules.get(module.__name__) is module:
            del sys.modules[module.__name__]


@contextmanager
def standing_in(*modules: types.ModuleType):
    """Register each stand-in under its name for the body, unless a module
    of that name is already imported, and take out again, however the body
    ends, each one that is still registered."""
    registered = [module for module in modules
                  if sys.modules.setdefault(module.__name__, module) is module]
    try:
        yield
    finally:
        for module in registered:
            unregister(module)
