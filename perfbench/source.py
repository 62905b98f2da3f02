"""Locate and import the saext sources of the checkout this benchmark lives in.

The benchmark never uses an installed copy of saext: it measures the
``src/`` tree next to it, so that two checkouts can be compared.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no saext sources, or another copy was imported."""


def import_saext():
    """Put the checkout's ``src/`` first on ``sys.path`` and import saext.

    Raises SourceMissing when ``src/saext`` is absent or when the imported
    package is not the one under ``src/``.
    """
    init = SRC / "saext" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"{init} not found: run the benchmark from a "
                            "checkout of the saext repository")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import saext
    import saext.cli  # noqa: F401  (the entry point every workload drives)

    if Path(saext.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported saext from {saext.__file__}, "
                            f"expected {init}")
    return saext
