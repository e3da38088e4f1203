"""Puts the checkout's ``src/`` first on ``sys.path``.

The benchmark measures the source tree it sits in, never an installed
copy of the package; without that tree it cannot run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "nonsmooth_fem" / "__init__.py").is_file():
    raise ImportError(f"no nonsmooth_fem package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
