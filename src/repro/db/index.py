"""Secondary index: a hash map for equality lookups."""

from __future__ import annotations

from typing import Any, Dict, Set


__all__ = ["HashIndex"]


class HashIndex:
    """value -> set of rowids, for O(1) equality lookups."""

    def __init__(self, table_name: str, column: str):
        self.table_name = table_name
        self.column = column
        self._map: Dict[Any, Set[int]] = {}

    def add(self, value: Any, rowid: int) -> None:
        self._map.setdefault(_hashable(value), set()).add(rowid)

    def remove(self, value: Any, rowid: int) -> None:
        key = _hashable(value)
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._map[key]

    def find(self, value: Any) -> Set[int]:
        """Rowids whose indexed column equals *value*."""
        return set(self._map.get(_hashable(value), ()))

    def __len__(self) -> int:
        return sum(len(b) for b in self._map.values())

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<HashIndex {self.table_name}.{self.column} keys={len(self._map)}>"


def _hashable(value: Any) -> Any:
    """Make BLOB values usable as dict keys."""
    if isinstance(value, bytearray):
        return bytes(value)
    return value
