"""The process's peak resident set from ``getrusage``, in one unit.

``ru_maxrss`` is bytes on macOS and KiB on Linux and the BSDs; this is
the one place that knows.
"""

from __future__ import annotations

import sys
from typing import Optional

try:
    import resource
except ImportError:  # pragma: no cover - platform without getrusage
    resource = None


def peak_rss_kib() -> Optional[int]:
    """This process's peak resident set in KiB (``None`` without getrusage)."""
    if resource is None:  # pragma: no cover - platform without getrusage
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage // 1024 if sys.platform == "darwin" else usage
