"""On-chip cache hierarchy: set-associative caches, a three-level
hierarchy with a shared LLC, and the IMP indirect-memory prefetcher from
the paper's Sec. 4.2 study.
"""

from repro.cache.cache import Cache
from repro.cache.hierarchy import AccessResult, CacheHierarchy
from repro.cache.imp import ImpPrefetcher

__all__ = [
    "Cache",
    "AccessResult",
    "CacheHierarchy",
    "ImpPrefetcher",
]
