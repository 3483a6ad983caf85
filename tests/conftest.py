"""Shared test set-up: child `python -m qpolar` processes import this checkout.

Several tests start the CLI in a subprocess with a temporary working
directory, where a relative PYTHONPATH such as `src` no longer resolves.
Prepend the absolute source directory of the imported package instead.
"""

import os

import qpolar

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qpolar.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
