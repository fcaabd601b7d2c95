"""`repro.results` — the unified results & artifact API (1.4).

Every campaign producer routes through this layer:

* :class:`ResultSet` — provenance-stamped records with lossless
  streaming JSONL round-trips and ``merge`` / ``filter`` / ``group_by``
  / ``diff`` algebra (:class:`ResultSetWriter` streams producer-side);
* :class:`Provenance` — what produced the records: design spec,
  scenario population, workload, engine policy, repro version;
* :class:`ResultStore` — content-addressed, hash-verified campaign
  cache keyed by :func:`campaign_key` over canonical
  ``(spec, scenarios, workload, engine-policy)`` material, with
  per-shard checkpoints for resumable ``workers=N`` campaigns.

:class:`repro.faultsim.results.CampaignResult` remains the in-memory
compatibility view; ``CampaignResult.to_result_set()`` and
``ResultSet.to_campaign()`` convert both ways.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.results.resultset import (
        Provenance,
        ResultDiff,
        ResultRecord,
        ResultSet,
        ResultSetWriter,
        fault_id,
    )
    from repro.results.store import (
        ResultStore,
        ResultStoreError,
        StoreEntry,
        StoreStats,
        campaign_key,
        canonical_json,
        content_digest,
        describe_target,
        scenario_material,
        workload_material,
    )

__all__ = [
    "Provenance",
    "ResultRecord",
    "ResultSet",
    "ResultSetWriter",
    "ResultDiff",
    "fault_id",
    "ResultStore",
    "ResultStoreError",
    "StoreEntry",
    "StoreStats",
    "campaign_key",
    "canonical_json",
    "content_digest",
    "describe_target",
    "scenario_material",
    "workload_material",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".resultset": (
            "Provenance",
            "ResultDiff",
            "ResultRecord",
            "ResultSet",
            "ResultSetWriter",
            "fault_id",
        ),
        ".store": (
            "ResultStore",
            "ResultStoreError",
            "StoreEntry",
            "StoreStats",
            "campaign_key",
            "canonical_json",
            "content_digest",
            "describe_target",
            "scenario_material",
            "workload_material",
        ),
    },
)
