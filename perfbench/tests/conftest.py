"""Make the benchmark's modules and the program importable in its tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import import_program  # noqa: E402

import_program()
