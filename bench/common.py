"""Paths and the import of the package under test.

The benchmark measures the sources in ``<root>/src`` of the checkout it
lives in, never an installed copy: :func:`import_oddtorus` refuses a
package that was imported from anywhere else.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"


class HarnessError(Exception):
    """The benchmark cannot run in this directory."""


def subprocess_env() -> dict[str, str]:
    """Environment for request subprocesses: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def purge_oddtorus() -> None:
    """Forget every loaded oddtorus module so the next import is fresh."""
    for name in [n for n in sys.modules if n == "oddtorus" or n.startswith("oddtorus.")]:
        del sys.modules[name]


def import_oddtorus():
    """Import oddtorus from ``<root>/src`` and return the package.

    Raises:
        HarnessError: the sources are missing, or the package resolved to
            another location.
    """
    if not (SRC / "oddtorus" / "__init__.py").is_file():
        raise HarnessError(f"no oddtorus sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("oddtorus")
    importlib.import_module("oddtorus.cli")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise HarnessError(f"oddtorus was imported from {origin}, not from {SRC}")
    return pkg
