"""Stand-in modules that spare an import the packages a run never uses.

import_with registers stand_in modules in sys.modules for the length of one
import, so the module it imports binds the few names a stand-in holds
instead of importing a heavy package it reads only off the run's path. A
stand-in package that holds the real package's __path__ lets a submodule
import without the package's __init__. graph imports scipy's kd-tree
extension this way, and iforest numpy.random.
"""

from __future__ import annotations

import importlib
import sys
import threading
import types

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


def import_with(name: str, *stand_ins: types.ModuleType) -> types.ModuleType:
    """importlib.import_module(name), with each stand-in registered under its
    name, unless a module of that name is already imported. However the
    import ends, each stand-in registered here and still registered is
    taken out again; a module that fails to load, the import system takes
    out itself."""
    registered = [module for module in stand_ins
                  if sys.modules.setdefault(module.__name__, module) is module]
    try:
        return importlib.import_module(name)
    finally:
        for module in registered:
            unregister(module)
