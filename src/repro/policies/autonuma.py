"""AutoNUMA-tiering — hint-fault promotion with no demotion path.

Section II-D: "AutoNUMA-tiering ... use[s] a software page fault technique
called hint page fault to track the page access and use[s] recency to
identify hot pages for promotion."  Table I lists no demotion mechanism.
The paper did not evaluate it separately because AutoTiering-CPM is built
from it; we include it as an extra comparator since it exists upstream
(it became the basis of Linux's tiered NUMA balancing).
"""

from __future__ import annotations

from repro.policies.autotiering import _HintFaultPolicy
from repro.policies.base import PolicyFeatures, register_policy

__all__ = ["AutoNumaTiering"]


@register_policy("autonuma")
class AutoNumaTiering(_HintFaultPolicy):
    """Promote on hint fault when DRAM has room; never demote."""

    features = PolicyFeatures(
        tiering="AutoNUMA-Tiering",
        page_access_tracking="Software Page Fault",
        selection_promotion="Recency",
        selection_demotion="N/A",
        numa_aware="Yes",
        space_overhead="Yes",
        generality="All",
        evaluation="PM",
        usability_limitation="Config. NUMA Paths",
        key_insight="NUMA balancing",
    )
