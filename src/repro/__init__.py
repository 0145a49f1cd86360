"""repro — reproduction of "Light, Camera, Actions: characterizing the
usage of IXPs' action BGP communities" (CoNEXT '22).

The package is layered bottom-up:

* :mod:`repro.bgp` — BGP data model (communities, AS paths, routes);
* :mod:`repro.ixp` — IXP substrate (members, community dictionaries,
  the eight studied IXPs' schemes and profiles);
* :mod:`repro.routeserver` — an RFC 7947 route-server simulator with
  import filters and action-community policy;
* :mod:`repro.lg` — a Looking Glass HTTP server and resilient client;
* :mod:`repro.workload` — calibrated synthetic populations and the
  twelve-week snapshot generator;
* :mod:`repro.collector` — snapshots, dataset store, collection
  campaigns, and the §3 sanitation pass;
* :mod:`repro.core` — the paper's analyses (Figs. 1–7, Tables 1–4) and
  the :class:`~repro.core.pipeline.Study` entry point.

Quick start::

    from repro import Study
    study = Study.synthetic(scale=0.05)
    for row in study.action_vs_informational(family=4):
        print(row["ixp"], row["action_share"])
"""

from .collector import DatasetStore, SanitationReport, Snapshot, sanitise
from .core import Study, aggregate_snapshot
from .ixp import (
    ALL_IXPS,
    LARGE_FOUR,
    CommunityDictionary,
    IxpProfile,
    all_profiles,
    dictionary_for,
    get_profile,
    large_profiles,
)
from .workload import ScenarioConfig, SnapshotGenerator

__version__ = "1.0.0"

__all__ = [
    "Study", "aggregate_snapshot",
    "Snapshot", "DatasetStore", "sanitise", "SanitationReport",
    "SnapshotGenerator", "ScenarioConfig",
    "IxpProfile", "get_profile", "all_profiles", "large_profiles",
    "dictionary_for", "CommunityDictionary",
    "ALL_IXPS", "LARGE_FOUR",
    "__version__",
]
