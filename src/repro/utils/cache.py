"""The one bounded memo the per-shape and per-spec caches share.

Trees, compiled networks, compiled systems, zoo graphs and topologies and
their route tables are each cached in a module-level dict through
:func:`cached`, which clears the dict wholesale once it holds
:data:`CACHE_LIMIT` keys.  A sweep over many organisations, or a
long-lived ``repro serve`` worker taking shapes from any client, therefore
cannot pin every shape it has seen, with its route table, for the process
lifetime.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, TypeVar

__all__ = ["CACHE_LIMIT", "cached"]

T = TypeVar("T")

#: Keys a cache holds before :func:`cached` clears it.
CACHE_LIMIT = 64


def cached(cache: Dict[Any, T], key: Any, build: Callable[[], T]) -> T:
    """``cache[key]``, built by ``build()`` on a miss (bounded by CACHE_LIMIT)."""
    value = cache.get(key)
    if value is None:
        if len(cache) >= CACHE_LIMIT:
            cache.clear()
        value = cache[key] = build()
    return value
