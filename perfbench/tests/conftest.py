import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import srcpath  # noqa: E402

srcpath.use_checkout_src()
