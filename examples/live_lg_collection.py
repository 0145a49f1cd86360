#!/usr/bin/env python3
"""Collect snapshots over HTTP from a (simulated) Looking Glass.

This example exercises the exact pipeline the paper's §3 describes,
end-to-end over real sockets:

1. an IXP route server is populated with member announcements;
2. a Looking Glass HTTP server exposes it (with a query rate limit and
   injected instability, like the real LGs);
3. the client fetches the RS community configuration and merges it with
   the "website" documentation to build the §3 dictionary;
4. a collection campaign fetches the summary, then every peer's
   accepted routes, retrying through rate limits and 5xx failures;
5. the snapshot is stored on disk and analysed.

Run:  python examples/live_lg_collection.py [--ixp linx] [--scale 0.02]
"""

import argparse
import tempfile

from repro.collector import DatasetStore
from repro.collector.campaign import (
    CampaignConfig,
    CampaignTarget,
    CollectionCampaign,
)
from repro.core import Study
from repro.core.report import format_table
from repro.ixp import CommunityDictionary, dictionary_pair_for, get_profile
from repro.lg import LookingGlassClient, LookingGlassServer
from repro.workload import ScenarioConfig, SnapshotGenerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ixp", default="linx",
                        choices=["ixbr-sp", "decix-fra", "linx", "amsix",
                                 "bcix", "netnod", "decix-mad",
                                 "decix-nyc"])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--failure-rate", type=float, default=0.10,
                        help="fraction of LG requests that fail with 503")
    args = parser.parse_args()

    profile = get_profile(args.ixp)
    print(f"Populating the {profile.name} route server "
          f"(scale {args.scale})...")
    generator = SnapshotGenerator(profile, ScenarioConfig(scale=args.scale))
    route_server = generator.populated_route_server(4)

    server = LookingGlassServer(
        {(profile.key, 4): route_server},
        rate_per_second=300, burst=100,
        failure_rate=args.failure_rate)

    with tempfile.TemporaryDirectory() as tmp, server.serve() as url:
        print(f"Looking glass at {url} "
              f"(rate limit 300 req/s, {args.failure_rate:.0%} injected "
              "failures)")
        store = DatasetStore(tmp)

        # §3: the dictionary is the union of the RS config (via the LG)
        # and the website documentation.
        _rs_only, website = dictionary_pair_for(profile)
        rs_dictionary = LookingGlassClient(
            url, profile.key, 4).config_dictionary()
        dictionary = CommunityDictionary.union(
            rs_dictionary.ixp_name, rs_dictionary, website)
        store.save_dictionary(profile.key, dictionary)
        print(f"Dictionary: {len(dictionary)} entries "
              f"(paper: {profile.dictionary_size})")

        target = CampaignTarget(ixp=profile.key, family=4)
        campaign = CollectionCampaign(store, CampaignConfig(
            base_url=url, targets=[target], captured_on="2021-10-04"))
        report = campaign.run().targets[0]
        stats = campaign.client_for(target).stats
        print(f"Collected {report.peers_collected}/"
              f"{report.peers_attempted} peers "
              f"({len(report.failures)} failed), "
              f"snapshot at {report.snapshot_path}; "
              f"client made {stats.requests} requests, "
              f"{stats.retries} retries, "
              f"{stats.server_errors} 5xx, "
              f"{stats.rate_limited} 429s")

        loaded = store.latest_snapshot(profile.key, 4)
        study = Study.from_snapshots(
            [loaded], {profile.key: store.load_dictionary(profile.key)})
        print(f"\nAnalysis of the scraped snapshot "
              f"({loaded.route_count} routes):")
        print(format_table(study.ases_using_actions(4), columns=[
            "ixp", "rs_members", "ases_using_actions", "ases_fraction",
            "routes_fraction"]))
        print(format_table(study.ineffective_summary(4)))


if __name__ == "__main__":
    main()
