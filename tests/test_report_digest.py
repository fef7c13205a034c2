"""The equivalence digest of ``scripts/report_digest.py``, pinned.

Every report of the script's 1,082 curves goes into one hash.  A refactor
keeps it; a change that alters verdicts or reports on purpose re-pins it
here and says which curves moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
PINNED = ("d84c4ca106512c5237d1f3996ab75113cdf677db65ee0d148748d8d4c9480494", 1082, 1)


def test_report_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest() == PINNED
