"""Collection substrate: snapshots, durable dataset store, integrity
and fsck tooling, sanitation, and fault-tolerant collection
campaigns."""

from .sanitation import (
    DEFAULT_DROP_THRESHOLD,
    SanitationReport,
    sanitise,
    sanitise_many,
    sanitise_store,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignTarget,
    CollectionCampaign,
    PeerFailure,
    TargetReport,
    install_shutdown_handlers,
)
from .dispatch import (
    DispatchConfig,
    DispatchCoordinator,
    DispatchReport,
    DispatchWorker,
    Lease,
    LeaseManager,
    WorkUnit,
    WorkerCrashSchedule,
)
from .fsck import FsckFinding, FsckReport, fsck_store
from .integrity import (
    DAMAGE_CLASSES,
    ChecksumMismatchError,
    CrashSchedule,
    IntegrityError,
    MalformedArtefactError,
    QuarantineRecord,
    SchemaDriftError,
    SimulatedCrash,
    TruncatedArtefactError,
    atomic_write,
)
from .manifest import Manifest
from .snapshot import Snapshot, snapshots_sorted
from .store import QUARANTINE_DIR, REPORTS_DIR, DatasetStore

__all__ = [
    "Snapshot", "snapshots_sorted", "DatasetStore",
    "CollectionCampaign", "CampaignConfig", "CampaignTarget",
    "CampaignReport", "TargetReport", "PeerFailure",
    "install_shutdown_handlers",
    "SanitationReport", "sanitise", "sanitise_many", "sanitise_store",
    "DEFAULT_DROP_THRESHOLD",
    "IntegrityError", "TruncatedArtefactError",
    "MalformedArtefactError", "ChecksumMismatchError",
    "SchemaDriftError", "DAMAGE_CLASSES",
    "CrashSchedule", "SimulatedCrash", "QuarantineRecord",
    "atomic_write", "Manifest",
    "fsck_store", "FsckReport", "FsckFinding",
    "DispatchCoordinator", "DispatchConfig", "DispatchReport",
    "DispatchWorker", "LeaseManager", "Lease", "WorkUnit",
    "WorkerCrashSchedule",
    "QUARANTINE_DIR", "REPORTS_DIR",
]
