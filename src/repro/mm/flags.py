"""Page flags, mirroring the relevant bits of Linux's ``page-flags.h``.

The paper extends ``struct page``'s flag word with one new flag,
``PagePromote`` ("we also reused the space allocated for the page flags
to maintain the newly defined flag").  The flag word itself is the
``int64`` ``flags`` column of the :class:`~repro.mm.pagestore.PageStore`.
:class:`PageFlags` is the API for tests and cold code (``page.flags``
decodes a word into one); the per-page hot paths mask the column with
plain ``int`` bits instead.  Combining a member with a numpy scalar
makes numpy probe the enum class for ``__array_ufunc__`` on every call.
"""

from __future__ import annotations

import enum

__all__ = ["PageFlags"]


class PageFlags(enum.IntFlag):
    """Subset of Linux page flags used by the reproduction.

    ``PROMOTE`` is the paper's new ``PagePromote`` flag; the rest are the
    standard PFRA flags the MULTI-CLOCK state machine reads and writes.
    """

    NONE = 0
    REFERENCED = enum.auto()
    ACTIVE = enum.auto()
    PROMOTE = enum.auto()
    UNEVICTABLE = enum.auto()
    DIRTY = enum.auto()
    LOCKED = enum.auto()
    LRU = enum.auto()
    SWAPBACKED = enum.auto()
