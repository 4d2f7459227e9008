"""Hash-partitioning primitives: the shard function and the worker pool.

Sharded storage (:meth:`repro.engine.storage.TableData.shard`) splits a
table's tid map into P shards keyed by :func:`stable_shard` over a
declared partition column. Two properties matter:

* **equality-consistency** — any two values that ``sql_compare("=")``
  accepts as equal land in the same shard (``1``, ``1.0`` and ``True``
  hash alike), so an equality conjunct on the partition key can prune
  the scan to one shard without losing matches;
* **process-stability** — the function avoids Python's per-process
  string-hash randomization (``zlib.crc32`` for strings), so shard
  layouts, and therefore every pruned-scan row order, are reproducible
  across runs and across the processes of a crash-recovery pair.

The worker pool is a process-wide ``ThreadPoolExecutor`` shared by the
per-shard fan-out paths (:mod:`repro.engine.plan`,
:mod:`repro.engine.dml`). Both fan out only predicates with no
subquery, so a pool task never fans out again. The compiled predicate
closures those workers run are pure loops over tuples, so the pool
degrades gracefully to interleaving on a single core while preserving
the deterministic tid-order merges that keep fan-out results
byte-identical to a serial scan.
"""

from __future__ import annotations

import os
import threading
import zlib

from concurrent.futures import ThreadPoolExecutor

#: fan-out below this many rows is all dispatch overhead; scan inline
FAN_OUT_MIN_ROWS = 256

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def stable_shard(value, count: int) -> int:
    """The shard (``0..count-1``) a partition-key *value* belongs to.

    NULL keys collect in shard 0 — a NULL never equals any probe
    constant, so pruned scans remain sound wherever NULLs land.
    """
    if count <= 1:
        return 0
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value) % count
    if isinstance(value, int):
        return value % count
    if isinstance(value, float):
        # Integral floats must co-locate with their int twins: SQL's
        # 2 = 2.0 is true, so both sides of it must share a shard.
        if value.is_integer():
            return int(value) % count
        return zlib.crc32(repr(value).encode("utf-8")) % count
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) % count
    return 0


def worker_pool() -> ThreadPoolExecutor:
    """The process-wide fan-out pool (created lazily, never shut down)."""
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                workers = max(2, min(8, os.cpu_count() or 1))
                _POOL = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
    return _POOL


def map_shards(tasks):
    """Run the zero-argument *tasks* on the pool; results in task order.

    The caller supplies one task per shard and merges the returned
    per-shard results in shard/tid order, which is what keeps fan-out
    byte-identical to the equivalent serial scan.
    """
    tasks = list(tasks)
    if len(tasks) <= 1:
        return [task() for task in tasks]
    pool = worker_pool()
    return [future.result() for future in [pool.submit(task) for task in tasks]]
