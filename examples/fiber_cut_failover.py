#!/usr/bin/env python3
"""Operational war stories from §4.2: fiber cuts and transit congestion.

Two production anecdotes, simulated:

* **§4.2(7) — the Internet as a fall-back**: a WAN fiber cut slashes
  backbone capacity toward a region; moving Teams traffic to the
  Internet with Titan frees the surviving WAN capacity for other
  services.  We cut a link on the UK path, watch the WAN route stretch,
  and quantify the WAN bandwidth freed by offloading at the 20% cap.

* **§4.2(6) — congestion at a transit ISP**: loss inflates on every
  Internet path riding one transit into a DC (a one-to-many pattern),
  and BGP failover to an alternate peer clears it.

* **A full campaign day**: the same fiber cut as a
  :class:`~repro.core.stress.StressTimeline` event, replayed end to end
  with intraday replanning at the §6.3 cadence — the planner detects
  the cut at onset, scales the cached LP's capacity RHS for the slots
  still to come, and re-solves them from the round's demand estimate;
  each solved round's columns replace the remaining slots' plan.

Exits with status 1 if the campaign day leaves a replan round unsolved
or fails to move Internet load back onto the WAN.

Run:
    python examples/fiber_cut_failover.py
"""

from repro.core.stress import StressTimeline, campaign_scenarios, run_campaign_day
from repro.core.titan_next import build_europe_setup
from repro.geo.world import default_world
from repro.net.events import EventSchedule, TransitCongestion, TransitSelector
from repro.net.latency import WAN, LatencyModel
from repro.net.topology import WanTopology


def fiber_cut_story() -> None:
    world = default_world()
    topology = WanTopology(world)
    model = LatencyModel(world, topology=topology)

    country, dc = "GB", "westeurope"
    before_km = topology.wan_path_km(country, dc)
    before_rtt = model.base_rtt_ms(country, dc, WAN)
    path = topology.wan_path(country, dc)
    print(f"WAN route {country} -> {dc}: {len(path)} links, {before_km:.0f} km, {before_rtt:.1f} ms")

    cut = None
    for link in path:
        try:
            topology.remove_link(link)
            cut = link
            break
        except ValueError:
            continue
    assert cut is not None
    # The topology's version moved, so the model drops its stale WAN RTTs.
    after_km = topology.wan_path_km(country, dc)
    after_rtt = model.base_rtt_ms(country, dc, WAN)
    print(f"Fiber cut on {sorted(cut.key)}:")
    print(f"  rerouted WAN path: {after_km:.0f} km, {after_rtt:.1f} ms (+{after_rtt - before_rtt:.1f} ms)")

    # Offload at the Titan cap frees WAN headroom for other services.
    pair_traffic_gbps = 2.0
    offload = 0.20
    print(
        f"  moving {offload:.0%} of the pair's ~{pair_traffic_gbps:.0f} Gbps to the Internet "
        f"frees {offload * pair_traffic_gbps:.1f} Gbps of WAN capacity while the repair lands"
    )
    topology.restore_link(cut)


def transit_congestion_story() -> None:
    world = default_world()
    topology = WanTopology(world)
    selector = TransitSelector(world)
    dc = "westeurope"
    countries = [c.code for c in world.europe_countries]

    victim_isp = selector.selected_transit(countries[0], dc)
    schedule = EventSchedule(
        topology,
        congestions=[TransitCongestion(dc, victim_isp, start_slot=0, end_slot=48, extra_loss_pct=0.8)],
    )
    riders = [c for c in countries if selector.selected_transit(c, dc) == victim_isp]
    print(f"\nTransit ISP {victim_isp!r} into {dc} congests; affected client countries:")
    print(f"  {', '.join(riders)}  (one-to-many pattern, §4.2(6))")
    for country in riders[:3]:
        extra = schedule.extra_internet_loss_pct(country, dc, slot=10, selector=selector)
        print(f"  {country}: +{extra:.1f}% loss on the Internet path")

    print("BGP failover steers the riders to an alternate transit:")
    for country in riders[:3]:
        new_isp = selector.mark_failed(country, dc, victim_isp)
        extra = schedule.extra_internet_loss_pct(country, dc, slot=10, selector=selector)
        print(f"  {country}: now on {new_isp!r}, +{extra:.1f}% loss")


def campaign_day_story() -> None:
    """The cut as a stress campaign: a whole day with intraday replanning."""
    setup = build_europe_setup(daily_calls=6_000.0, top_n_configs=60)
    day = 2
    baseline = run_campaign_day(setup, StressTimeline(()), day=day)
    timeline = campaign_scenarios(setup)["fiber-cut"]
    cut = timeline.events[0]
    result = run_campaign_day(setup, timeline, day=day)

    print(f"\nCampaign day {day}: fiber cut on {cut.node_a}--{cut.node_b}, "
          f"slots {cut.start_slot}-{cut.end_slot}")
    print(f"  replan rounds: {result.replanned_rounds} solved, "
          f"{result.infeasible_rounds} infeasible (stale plan kept)")
    print(f"  WAN sum-of-peaks: {result.evaluation.sum_of_peaks_gbps:.4f} Gbps "
          f"(baseline {baseline.evaluation.sum_of_peaks_gbps:.4f})")
    print(f"  Internet share:   {result.evaluation.internet_share:.1%} "
          f"(baseline {baseline.evaluation.internet_share:.1%})")
    print(f"  surge fallbacks: {result.surge_rate:.2%} of calls, "
          f"quota overdraft: {result.overflow_rate:.2%}")
    print("  the replans move the cut corridor's Internet load back onto the WAN "
          "for the cut window, then restore it once the repair lands")
    if result.infeasible_rounds or not (
        result.evaluation.internet_share < baseline.evaluation.internet_share
    ):
        print("FAILED: the fiber-cut day must solve every replan round and carry "
              "a smaller Internet share than the clean day")
        raise SystemExit(1)


def main() -> None:
    fiber_cut_story()
    transit_congestion_story()
    campaign_day_story()


if __name__ == "__main__":
    main()
