"""Set-associative LRU caches and a two-level hierarchy.

The timing contract mirrors the paper's memory model: L1 and L2 hits cost
CPU *cycles* (they scale with frequency), while a miss to main memory costs
wall-clock *seconds* (asynchronous memory).  The hierarchy therefore
reports, per access, the synchronous cycle cost and whether main memory
must be touched; the machine turns the latter into an asynchronous miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulator.config import CacheConfig


class Cache:
    """One set-associative, write-allocate cache level with true-LRU sets.

    Sets are ordered dicts from tag to None; Python dicts preserve insertion
    order, so "move to end on hit, evict first on replace" implements LRU in
    O(1) amortized per access.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        if self.num_sets <= 0:
            raise ValueError(f"{name}: size/assoc/line give {self.num_sets} sets")
        self.sets: list[dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, address: int) -> bool:
        """Access one address; returns True on hit.  Allocates on miss."""
        line = address // self.config.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self.sets[index]
        if tag in cache_set:
            # refresh LRU position
            del cache_set[tag]
            cache_set[tag] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.config.assoc:
            cache_set.pop(next(iter(cache_set)))
        cache_set[tag] = None
        return False

    def contains(self, address: int) -> bool:
        """Non-mutating presence check (testing aid)."""
        line = address // self.config.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        return tag in self.sets[index]

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:
        return f"Cache({self.name}, {self.hits} hits / {self.misses} misses)"


@dataclass
class AccessResult:
    """Outcome of one hierarchy access.

    Attributes:
        level: "l1", "l2" or "mem".
        sync_cycles: CPU cycles spent synchronously (hit latencies).
        memory_miss: True when main memory must service the access
            (asynchronous wall-clock latency, charged by the machine).
    """

    level: str
    sync_cycles: int
    memory_miss: bool


class CacheHierarchy:
    """L1 (data or instruction) backed by a unified L2.

    Timing:

    * L1 hit: ``l1.hit_latency`` cycles.
    * L2 hit: ``l1.hit_latency + l2.hit_latency`` cycles.
    * Miss:   same synchronous cycles as an L2 hit (the lookups still
      happen) plus an asynchronous main-memory access.
    """

    def __init__(self, l1_config: CacheConfig, l2: Cache, name: str = "hier") -> None:
        self.l1 = Cache(l1_config, name=f"{name}.l1")
        self.l2 = l2
        self.name = name

    def access(self, address: int) -> AccessResult:
        level = self.level(address)
        if level == 0:
            return AccessResult("l1", self.l1.config.hit_latency_cycles, False)
        sync = self.l1.config.hit_latency_cycles + self.l2.config.hit_latency_cycles
        if level == 1:
            return AccessResult("l2", sync, False)
        return AccessResult("mem", sync, True)

    def level(self, address: int) -> int:
        """Access one address; returns the outcome code the simulator's
        timing model consumes: 0 = L1 hit, 1 = L2 hit, 2 = memory miss."""
        if self.l1.lookup(address):
            return 0
        if self.l2.lookup(address):
            return 1
        return 2

    def stats(self) -> dict[str, int]:
        return {
            "l1_hits": self.l1.hits,
            "l1_misses": self.l1.misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
        }
