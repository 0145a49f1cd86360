"""Core analyses — the paper's contribution.

Classification of community instances, single-pass snapshot aggregation,
and one module per paper artefact (§4 prevalence, §5.2 usage, §5.3–5.4
favourites, §5.5 ineffective actions, Appendix A stability), tied
together by :class:`~repro.core.pipeline.Study`.
"""

from . import (
    blackholing,
    export,
    favorites,
    hygiene,
    ineffective,
    nonstandard,
    overhead,
    prevalence,
    stability,
    summary,
    usage,
)
from .aggregate import SnapshotAggregate, aggregate_snapshot
from .classification import ClassifiedCommunity, Classifier
from .engine import (
    AGGREGATOR_VERSION,
    AggregateCache,
    AggregationPlan,
    PlanResult,
    aggregate_cache_key,
    run_plans,
)
from .pipeline import Study, sanitised_series
from .report import format_table, paper_vs_measured, percent, render_share_bars

__all__ = [
    "Classifier", "ClassifiedCommunity",
    "SnapshotAggregate", "aggregate_snapshot",
    "Study", "sanitised_series",
    "AGGREGATOR_VERSION", "AggregateCache", "AggregationPlan",
    "PlanResult", "aggregate_cache_key", "run_plans",
    "format_table", "paper_vs_measured", "percent", "render_share_bars",
    "prevalence", "usage", "favorites", "ineffective", "summary",
    "stability", "nonstandard", "export", "overhead",
    "hygiene", "blackholing",
]
