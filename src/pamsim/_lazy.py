"""numpy, imported on its first use.

`np` is the module that an `import numpy` already made, untouched, or else one that
`importlib.util.LazyLoader` puts in `sys.modules`: the first attribute read on it
executes numpy, so a command that computes with no array (`bounds`, `spacetime`,
`--help`, a usage error) never loads numpy, and a later `import numpy` anywhere
returns this same object, loaded.

Before Python 3.12, LazyLoader is not thread-safe: two threads that first use numpy
at the same moment can fail.  pamsim starts no threads.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
