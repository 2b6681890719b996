"""The inventory of ``REPRO_*`` environment knobs.

Every knob is a decision a user has to know about, so adding one is an
explicit edit to :data:`KNOBS` rather than a side effect of a new
``os.environ`` read somewhere under ``src/repro``.
"""

import re
from pathlib import Path

import repro

KNOBS = {
    # exposure cache and backend
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_EXPOSURE_BACKEND",
    # geo/ASN enrichment provider
    "REPRO_GEO_PROVIDER",
    "REPRO_GEO_DB",
    # campaign service
    "REPRO_SERVICE_DB",
    "REPRO_GRID_JOB_DELAY",
    # profiling
    "REPRO_PROFILE",
    "REPRO_PROFILE_DIR",
}


def test_knob_inventory_is_pinned():
    source_root = Path(repro.__file__).parent
    found = set()
    for path in source_root.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert found == KNOBS
