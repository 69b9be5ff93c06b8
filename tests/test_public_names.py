"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves a stale ``__all__`` entry fails here rather
than at a user's ``from repro.isa import *``.
"""

import importlib
import pkgutil

import repro


def _modules():
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.")]
    return [importlib.import_module(name) for name in names]


def test_every_all_entry_resolves():
    exporting = [module for module in _modules()
                 if hasattr(module, "__all__")]
    assert len(exporting) >= 10  # the walk reached the subpackages
    missing = [f"{module.__name__}.{name}" for module in exporting
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
