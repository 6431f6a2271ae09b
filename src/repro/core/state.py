"""The Figure-4 page state machine.

The paper's Figure 4 defines six page states — inactive/active ×
(un)referenced, the new *promote* state, and unevictable — and thirteen
transitions between them.  This module gives each state a name, derives
a page's state from its flags and list membership, and implements the
two transitions that are unique to MULTI-CLOCK:

* edge 10 — an active-referenced page referenced again moves to the
  promote list and gains the ``PagePromote`` flag;
* edge 11 — a promote-list page that was *not* accessed again is recycled
  to the active-unreferenced state.

The remaining edges are the stock PFRA transitions implemented in
:mod:`repro.mm.vmscan` (1, 2, 6, 7, 8, 9), allocation/free (4, 5),
demotion (3) and the kpromoted promotion itself (13); edge 12 is the
self-loop of an accessed promote-list page.
"""

from __future__ import annotations

import enum

from repro.mm.flags import PageFlags
from repro.mm.lruvec import ListKind
from repro.mm.numa import NumaNode
from repro.mm.page import Page

__all__ = ["PageState", "classify", "move_to_promote", "recycle_promote_to_active"]

# Flag bits bound once as plain ints (see repro.mm.flags).
_REFERENCED = int(PageFlags.REFERENCED)
_ACTIVE = int(PageFlags.ACTIVE)
_PROMOTE = int(PageFlags.PROMOTE)
_PROMOTE_REFERENCED = int(PageFlags.PROMOTE | PageFlags.REFERENCED)


class PageState(enum.Enum):
    """Vertex names from Figure 4 (plus OFF_LRU for in-flight pages)."""

    INACTIVE_UNREFERENCED = "inactive_unreferenced"
    INACTIVE_REFERENCED = "inactive_referenced"
    ACTIVE_UNREFERENCED = "active_unreferenced"
    ACTIVE_REFERENCED = "active_referenced"
    PROMOTE = "promote"
    UNEVICTABLE = "unevictable"
    OFF_LRU = "off_lru"


def classify(page: Page) -> PageState:
    """Derive the Figure-4 state of ``page`` from flags + list membership."""
    lst = page.lru
    if lst is None:
        return PageState.OFF_LRU
    if lst.kind is ListKind.UNEVICTABLE:
        return PageState.UNEVICTABLE
    if lst.kind is ListKind.PROMOTE:
        return PageState.PROMOTE
    referenced = page.test(_REFERENCED)
    if lst.kind is ListKind.ACTIVE:
        return PageState.ACTIVE_REFERENCED if referenced else PageState.ACTIVE_UNREFERENCED
    return PageState.INACTIVE_REFERENCED if referenced else PageState.INACTIVE_UNREFERENCED


def move_to_promote(node: NumaNode, page: Page) -> None:
    """Edge 10: active-referenced page referenced again → promote list.

    This is the paper's extension of ``mark_page_accessed()``: "check for
    pages that are already referenced and marked as active and are being
    referenced again to mark such pages with the PagePromote flag and to
    move them from their corresponding active list to the promote list".
    The REFERENCED flag stays set: it records that the page earned its
    slot with a fresh reference, which kpromoted consumes at edge 13.
    """
    lst = page.lru
    if lst is not None:
        lst.remove(page)
    page.set(_PROMOTE_REFERENCED)
    page.clear(_ACTIVE)
    node.lruvec.list_of(page, ListKind.PROMOTE).add_head(page)


def recycle_promote_to_active(
    node: NumaNode, page: Page, *, keep_referenced: bool = False
) -> None:
    """Edge 11: unaccessed promote-list page → active-unreferenced.

    The demotion path's variant ("if that is not possible ... it is moved
    to the active list", Section III-C) passes ``keep_referenced=True``:
    those pages earned promote-list membership with fresh references, so
    they re-enter the active list with their recency intact rather than
    as immediate deactivation candidates.
    """
    lst = page.lru
    if lst is not None:
        lst.remove(page)
    page.clear(_PROMOTE if keep_referenced else _PROMOTE_REFERENCED)
    page.set(_ACTIVE)
    node.lruvec.list_of(page, ListKind.ACTIVE).add_head(page)
