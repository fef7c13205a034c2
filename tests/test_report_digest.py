"""The equivalence digest of ``scripts/report_digest.py``, pinned.

Every report of the script's 1,082 curves goes into one hash.  A refactor
keeps it; a change that alters verdicts or reports on purpose re-pins it
here and says which curves moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
PINNED = ("46fa63756aec91b4d1e35c80a4330db7523ad0a5e9574d125cb150a15420aed5", 1082, 1)


def test_report_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest() == PINNED
