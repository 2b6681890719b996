"""Pinned digests of the netDb end state after publishes and lookups.

Each case builds a network with 10% O-tier floodfills, runs 3 convergence
rounds and 6 publish rounds of 0.25 h, then 500 RouterInfo lookups between
(requester, key) pairs drawn from a seeded ``random.Random``.  The digest
is SHA-256 over the lookup answers, ``messages_delivered``, each router's
sorted known floodfills, and its store's RouterInfos in insertion order
with ``published_at``.  The cases cover 300 and 1,000 routers, each without
a fault plan and with a 5% per-link drop plan attached after convergence.
Every case runs on both message planes (``batched=True`` and ``False``),
and both must equal the one value pinned in ``manifest.json``.

Regenerate the pinned values with the command below, and give the reason
for every regeneration in CHANGES.md:

    PYTHONPATH=src python tests/golden/test_golden_netdb.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.netdb.routerinfo import BandwidthTier, RouterInfo
from repro.sim.faults import FaultPlan
from repro.sim.network import I2PNetwork

MANIFEST = Path(__file__).with_name("manifest.json")

SEED = 2018
FLOODFILL_FRACTION = 0.1
CONVERGENCE_ROUNDS = 3
PUBLISH_ROUNDS = 6
LOOKUPS = 500
DROP_PLAN = FaultPlan(seed=3, drop_probability=0.05)

#: Case name -> (router count, fault plan attached after convergence).
CASES: Dict[str, tuple] = {
    "routers-300": (300, None),
    "routers-300-drop5": (300, DROP_PLAN),
    "routers-1000": (1000, None),
    "routers-1000-drop5": (1000, DROP_PLAN),
}


def netdb_digest(net: I2PNetwork, answers: List[Optional[RouterInfo]]) -> str:
    digest = hashlib.sha256()
    for info in answers:
        if info is None:
            digest.update(b"\x00")
        else:
            digest.update(b"\x01" + info.hash + struct.pack("<d", info.published_at))
    digest.update(struct.pack("<q", net.messages_delivered))
    for router_hash, router in net.routers.items():
        digest.update(router_hash)
        known = sorted(router.known_floodfills)
        digest.update(struct.pack("<q", len(known)) + b"".join(known))
        digest.update(struct.pack("<q", len(router.store)))
        for info in router.store.iter_routerinfos():
            digest.update(info.hash + struct.pack("<d", info.published_at))
    return digest.hexdigest()


def run_case(case: str, batched: bool) -> str:
    routers, plan = CASES[case]
    net = I2PNetwork(seed=SEED, batched=batched)
    floodfills = max(1, round(routers * FLOODFILL_FRACTION))
    for _ in range(floodfills):
        net.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
    net.batch_add_routers(routers - floodfills)
    net.run_convergence_rounds(rounds=CONVERGENCE_ROUNDS)
    if plan is not None:
        net.set_fault_plan(plan.shifted(net.clock.now))
    for _ in range(PUBLISH_ROUNDS):
        net.step_hours(0.25)
        net.publish_all()
    rng = random.Random(SEED)
    hashes = list(net.routers)
    answers = []
    while len(answers) < LOOKUPS:
        requester, key = rng.choice(hashes), rng.choice(hashes)
        if requester != key:
            answers.append(net.lookup_routerinfo(requester, key))
    return netdb_digest(net, answers)


def load_manifest() -> Dict[str, Dict[str, str]]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_netdb_digest_is_pinned_on_both_planes(case):
    pinned = load_manifest()["netdb"][case]
    digests = {batched: run_case(case, batched) for batched in (True, False)}
    assert digests == {True: pinned, False: pinned}


def regenerate() -> None:
    manifest = load_manifest() if MANIFEST.exists() else {}
    values = {}
    for case in sorted(CASES):
        digests = {run_case(case, batched) for batched in (True, False)}
        if len(digests) != 1:
            raise SystemExit(f"{case}: the two message planes disagree, nothing written")
        (values[case],) = digests
        print(f"{case}: {values[case]}")
    manifest["netdb"] = values
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --regenerate")
    regenerate()
