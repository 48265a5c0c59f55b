"""Nonlocal-box toolkit.

Boxes as conditional probability tables, a small dense complex-algebra
layer, a linear extension of the extremal binary box to superposed
inputs, and the machinery to quantify exactly how that extension stays
positive and normalized while leaking a signal.

The six layer modules are registered lazily: ``boxworld.boxes`` and the
others are in ``sys.modules`` and attributes of this package from the
start, but a module's code (and numpy with it) runs only on the first
attribute read from it. So a command loads only the chain it runs, and
``import boxworld`` loads no numpy. Each name is read from its layer, as
``boxworld.boxes.pr_box``. Python 3.11's ``importlib.util.LazyLoader`` is
not thread-safe: two threads that touch one unloaded layer at the same
moment may both run it. The command line is single-threaded.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec


def _lazy(layer):
    spec = PathFinder.find_spec(f"{__name__}.{layer}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)  # marks the module lazy; runs none of its code
    return module


quantum, boxes, hybrid, protocol, dsl, audit = map(
    _lazy, ("quantum", "boxes", "hybrid", "protocol", "dsl", "audit")
)

__version__ = "0.1.0"
