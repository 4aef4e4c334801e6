"""Locate the labelloop sources of the checkout this benchmark sits in.

The benchmark always measures the package under ``src/`` next to its own
directory, never an installed copy, so a checkout without the sources fails
instead of silently measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    pass


def use_checkout_src() -> Path:
    """Put the checkout's ``src`` first on ``sys.path`` and check that
    ``labelloop`` then resolves to it."""
    init = SRC / "labelloop" / "__init__.py"
    if not init.is_file():
        raise MissingSources(f"no labelloop sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import labelloop
    if Path(labelloop.__file__).resolve() != init.resolve():
        raise MissingSources(f"labelloop resolves to {labelloop.__file__}, not {init}")
    return SRC
