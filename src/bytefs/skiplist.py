"""Skip list keyed by integers, with a count of key comparisons so tests
can check logarithmic lookup growth; levels are seeded per instance.  The
write log no longer uses it (its index is a dict of pages); it stays for
acceptance criterion 07 and `perfbench/tracer.py`, which wraps it by name.
"""

from __future__ import annotations

import random

MAX_LEVEL = 20
P = 0.5


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key, value, level):
        self.key = key
        self.value = value
        self.forward = [None] * (level + 1)


class SkipList:
    def __init__(self, seed: int = 0):
        self.head = _Node(None, None, MAX_LEVEL - 1)
        self.level = 0
        self.size = 0
        self.comparisons = 0
        self._rng = random.Random(seed)

    def _random_level(self) -> int:
        level = 0
        while self._rng.random() < P and level < MAX_LEVEL - 1:
            level += 1
        return level

    def _find_path(self, key):
        update = [None] * MAX_LEVEL
        node = self.head
        comps = 0
        for i in range(self.level, -1, -1):
            nxt = node.forward[i]
            while nxt is not None:
                comps += 1
                if nxt.key < key:
                    node = nxt
                    nxt = node.forward[i]
                else:
                    break
            update[i] = node
        self.comparisons += comps
        return update, node.forward[0]

    def get(self, key, default=None):
        _, candidate = self._find_path(key)
        if candidate is not None:
            self.comparisons += 1
            if candidate.key == key:
                return candidate.value
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key, value) -> None:
        update, candidate = self._find_path(key)
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return
        level = self._random_level()
        if level > self.level:
            for i in range(self.level + 1, level + 1):
                update[i] = self.head
            self.level = level
        node = _Node(key, value, level)
        for i in range(level + 1):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self.size += 1

    def delete(self, key) -> bool:
        update, candidate = self._find_path(key)
        if candidate is None or candidate.key != key:
            return False
        for i in range(self.level + 1):
            if update[i].forward[i] is candidate:
                update[i].forward[i] = candidate.forward[i]
        while self.level > 0 and self.head.forward[self.level] is None:
            self.level -= 1
        self.size -= 1
        return True

    def items(self):
        node = self.head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def keys(self):
        for key, _ in self.items():
            yield key

    def __len__(self) -> int:
        return self.size
