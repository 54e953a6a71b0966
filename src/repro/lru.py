"""A bounded least-recently-used map.

A leaf module (standard library only), so the simulator's fast-path
engine and the artifact store can share it without the one loading the
other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class BoundedLRU:
    """A thread-safe least-recently-used map bounded by the summed cost
    of its entries."""

    def __init__(self, max_cost: int) -> None:
        self.max_cost = max_cost
        self.cost = 0
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, cost: int = 1) -> int:
        """Insert ``value``; returns how many older entries were evicted.

        A value costlier than the whole bound is not kept.
        """
        if cost > self.max_cost:
            return 0
        with self._lock:
            self._discard_locked(key)
            self._entries[key] = (value, cost)
            self.cost += cost
            evicted = 0
            while self.cost > self.max_cost:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.cost -= dropped
                evicted += 1
            return evicted

    def discard(self, key: Hashable) -> None:
        with self._lock:
            self._discard_locked(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.cost = 0

    def _discard_locked(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.cost -= entry[1]
