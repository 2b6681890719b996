"""Each benchmark correctness check passes on the program's real output and
fails when one input is perturbed.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import random

import pytest
from repro.core.campaign import campaign_observation_seed
from repro.core.scenario import run_scenario
from repro.netdb.routerinfo import BandwidthTier
from repro.sim.exposure import ExposureEngine
from repro.sim.network import I2PNetwork

import checks
import passes

SEED = 7
DAYS = 3


@pytest.fixture(scope="module")
def campaign():
    engine = ExposureEngine()
    out = run_scenario("main_campaign", scale=0.02, seed=SEED, days=DAYS, engine=engine)
    config = out.campaign.config
    exposure = engine.get(config.population, campaign_observation_seed(SEED), days=DAYS)
    return out, exposure


def figure13(out):
    return {name: list(s.points) for name, s in out.figures["figure_13"].series.items()}


def test_figure13_point_off_by_one_address(campaign):
    out, exposure = campaign
    assert passes.check_campaign(out, exposure, SEED) == []
    config = out.campaign.config
    routers = len(config.monitors)
    expected = passes.recompute_figure13(exposure, config, {(routers, 1)})
    assert checks.check_figure13_points(figure13(out), expected) == []
    victim = passes.victim_spec(config)
    victim_days = {day: {victim} for day in range(DAYS - checks.VICTIM_HISTORY_DAYS, DAYS)}
    victim_ips = set().union(*passes.observed_addresses(exposure, victim_days).values())
    series = figure13(out)
    x, y = series["1 day"][routers - 1]
    series["1 day"][routers - 1] = (x, y + 100.0 / len(victim_ips))
    assert checks.check_figure13_points(series, expected)


def test_figure13_series_that_dips(campaign):
    out, _ = campaign
    series = figure13(out)
    assert checks.check_figure13_shape(series) == []
    points = series["5 days"]
    points[-1] = (points[-1][0], points[-2][1] - 0.5)
    assert any("falls" in problem for problem in checks.check_figure13_shape(series))


def test_figure13_longer_window_below_shorter(campaign):
    out, _ = campaign
    series = figure13(out)
    x, y = series["1 day"][3]
    series["1 day"][3] = (x, series["30 days"][3][1] + 1.0)
    assert any("below" in problem for problem in checks.check_figure13_shape(series))


def test_figure13_rate_outside_range():
    series = {"1 day": [(1.0, 10.0), (2.0, 101.0)]}
    assert any("outside" in problem for problem in checks.check_figure13_shape(series))


def test_figure13_recomputation_counts_one_address():
    day_ips = {
        ("victim", 0): {"a", "b", "c", "d"},
        ("victim", 1): {"a", "b", "c", "d"},
        ("censor", 1): {"a", "b"},
    }
    rate = checks.figure13_rate(lambda r, d: day_ips.get((r, d), set()), ["censor"], "victim", 1, 1)
    assert rate == 50.0
    day_ips["censor", 1] = {"a", "b", "c"}
    assert checks.figure13_rate(lambda r, d: day_ips.get((r, d), set()), ["censor"], "victim", 1, 1) == 75.0


@pytest.fixture(scope="module")
def network():
    net = I2PNetwork(seed=SEED)
    for _ in range(8):
        net.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
    net.batch_add_routers(72)
    net.run_convergence_rounds(rounds=3)
    for _ in range(4):
        net.step_hours(0.25)
        net.publish_all()
    return net


def test_lookup_answered_with_another_routers_routerinfo(network):
    rng = random.Random(SEED)
    hashes = list(network.routers)
    requester = next(h for h in hashes if not network.routers[h].floodfill)
    key, other = rng.sample([h for h in hashes if h != requester], 2)
    info = network.lookup_routerinfo(requester, key)
    assert checks.check_lookup(key, info) == []
    wrong = network.routers[other].routerinfo(network.clock.now)
    assert checks.check_lookup(key, wrong)


def test_routerinfo_missing_from_closest_known_floodfill(network):
    def holds(floodfill, router):
        return network.routers[floodfill].store.get_routerinfo(router) is not None

    now = network.clock.now
    router = next(h for h, r in network.routers.items() if not r.floodfill)
    known = [h for h in network.routers[router].known_floodfills if h in network.routers]
    assert checks.check_closest_floodfill(router, known, holds, now) == []
    date = checks.date_string(now)
    closest = min(known, key=lambda ff: (checks.routing_distance(ff, router, date), ff))
    store = network.routers[closest].store
    saved = store.get_routerinfo(router)
    store.remove_routerinfo(router)
    try:
        assert checks.check_closest_floodfill(router, known, holds, now)
    finally:
        store.store_routerinfo(saved)


def test_half_written_bundle_left_behind(tmp_path):
    def bundles_left():
        return [p for p in passes.leftovers(tmp_path) if ".exposure-" in p]

    (tmp_path / "finished-bundle").mkdir()
    assert bundles_left() == []
    (tmp_path / ".exposure-x").mkdir()
    assert bundles_left() == [f"{tmp_path / '.exposure-x'} left behind"]
