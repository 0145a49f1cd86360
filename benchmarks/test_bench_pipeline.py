"""Throughput benches for the pipeline's hot kernels.

Not a paper artefact — these time the substrate itself (generation,
classification, aggregation, LG round trips) so performance
regressions in the reproduction are visible.
"""

import pytest

from repro.bgp.communities import standard
from repro.core.aggregate import aggregate_snapshot
from repro.core.classification import Classifier
from repro.ixp import dictionary_for, get_profile
from repro.workload import ScenarioConfig, SnapshotGenerator

from conftest import emit


@pytest.fixture(scope="module")
def small_generator():
    return SnapshotGenerator(get_profile("linx"),
                             ScenarioConfig(scale=0.012, seed=61))


@pytest.fixture(scope="module")
def small_snapshot(small_generator):
    return small_generator.snapshot(4, degraded=False)


def test_bench_snapshot_generation(benchmark, small_generator):
    snapshot = benchmark(small_generator.snapshot, 4, 7, False)
    assert snapshot.route_count > 0


def test_bench_aggregation(benchmark, small_generator, small_snapshot):
    aggregate = benchmark(aggregate_snapshot, small_snapshot,
                          small_generator.dictionary)
    emit("pipeline — aggregation input size",
         f"{small_snapshot.route_count} routes, "
         f"{small_snapshot.community_count} community instances")
    assert aggregate.std_action_count > 0


def test_bench_classifier_throughput(benchmark, small_snapshot,
                                     small_generator):
    classifier = Classifier(small_generator.dictionary)
    routes = small_snapshot.routes[:2000]

    def classify_all():
        return sum(len(classifier.classify_route(route))
                   for route in routes)

    instances = benchmark(classify_all)
    assert instances > 0


def test_bench_dictionary_lookup_miss(benchmark):
    """Unknown communities walk every rule — the slow path."""
    dictionary = dictionary_for(get_profile("decix-fra"))
    unknown = [standard(3356, value) for value in range(1, 200)]

    def lookup_all():
        return sum(1 for community in unknown
                   if dictionary.lookup(community) is None)

    misses = benchmark(lookup_all)
    assert misses == len(unknown)


def test_bench_lg_roundtrip(benchmark, small_generator):
    from repro.lg import LookingGlassClient, LookingGlassServer
    server = LookingGlassServer(
        {("linx", 4): small_generator.populated_route_server(4)},
        rate_per_second=1e9, burst=10**6)
    with server.serve() as url:
        client = LookingGlassClient(url, "linx", 4, sleep=lambda s: None)
        neighbors = client.neighbors()
        target = max(neighbors, key=lambda n: n.routes_accepted)

        def fetch():
            return len(list(client.routes(target.asn, page_size=500)))

        count = benchmark(fetch)
        assert count == target.routes_accepted
