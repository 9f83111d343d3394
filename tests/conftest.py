"""Let the tests that start ``python -m mchb`` import this checkout's package.

``pythonpath`` in ``pyproject.toml`` covers imports in the test process; the
child processes get ``src`` through ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
