"""The benchmark's own model of what a replayed trace leaves behind.

The model is derived from the trace records alone.  It keeps its own copy
of the payload rule (a blake2b digest of ``path:offset``, repeated), so a
change to ``bytefs.bench`` cannot make the benchmark agree with itself.
It does not use ``bytefs.bench.DurabilityOracle``.
"""

from __future__ import annotations

import hashlib

from bytefs.layout import ITYPE_DIR


def payload(path: str, offset: int, size: int) -> bytes:
    digest = hashlib.blake2b(f"{path}:{offset}".encode(),
                             digest_size=8).digest()
    return (digest * (size // len(digest) + 1))[:size]


class ContentModel:
    """Namespace and file bytes after each record.

    ``synced_len`` is a file's length at its last fsync, and ``unsynced``
    lists the byte ranges written since then: a power cut may keep either
    the old or the new bytes there, because page-cache eviction can write
    them back early.
    """

    def __init__(self):
        self.dirs: set[str] = set()
        self.files: dict[str, bytearray] = {}
        self.synced_len: dict[str, int] = {}
        self.unsynced: dict[str, list[tuple[int, int]]] = {}

    def apply(self, rec) -> None:
        op, path = rec.op, rec.path
        if op == "mkdir":
            self.dirs.add(path)
        elif op == "rmdir":
            self.dirs.discard(path)
        elif op == "create":
            self.files[path] = bytearray()
            self.synced_len[path] = 0
            self.unsynced[path] = []
        elif op == "unlink":
            del self.files[path], self.synced_len[path], self.unsynced[path]
        elif op == "write":
            buf = self.files[path]
            end = rec.offset + rec.size
            if end > len(buf):
                buf.extend(bytes(end - len(buf)))
            buf[rec.offset:end] = payload(path, rec.offset, rec.size)
            if rec.fsync:
                self._sync(path)
            else:
                self.unsynced[path].append((rec.offset, end))
        elif op == "fsync":
            self._sync(path)

    def _sync(self, path: str) -> None:
        self.synced_len[path] = len(self.files[path])
        self.unsynced[path] = []

    def paths(self) -> set[str]:
        return self.dirs | set(self.files)


def walk(fs, root: str = "/") -> list[str]:
    out = []
    for name in fs.readdir(root):
        path = root.rstrip("/") + "/" + name
        out.append(path)
        if fs.lookup(path).itype == ITYPE_DIR:
            out += walk(fs, path)
    return out


def _namespace_problems(fs, model: ContentModel) -> list[str]:
    found = set(walk(fs))
    want = model.paths()
    return ([f"missing {p}" for p in sorted(want - found)]
            + [f"unexpected {p}" for p in sorted(found - want)])


def _read_file(fs, path: str, length: int) -> bytes:
    fd = fs.open(path)
    try:
        return fs.read(fd, 0, length)
    finally:
        fs.close(fd)


def check_live(fs, model: ContentModel) -> list[str]:
    """After a replay: the namespace and every file's bytes and size
    equal the model."""
    problems = _namespace_problems(fs, model)
    for path, want in sorted(model.files.items()):
        size = fs.lookup(path).size
        if size != len(want):
            problems.append(f"{path}: size {size}, model {len(want)}")
        elif _read_file(fs, path, size) != want:
            problems.append(f"{path}: bytes differ from the model")
    return problems


def check_survived(fs, model: ContentModel) -> list[str]:
    """After a power cut and recovery: every path survives, none comes
    back, and every fsynced byte reads back as it was synced."""
    problems = _namespace_problems(fs, model)
    for path, want in sorted(model.files.items()):
        n = model.synced_len[path]
        if not n:
            continue
        got = _read_file(fs, path, n)
        if len(got) < n:
            problems.append(f"{path}: {len(got)} of {n} synced bytes left")
            continue
        if got == want[:n]:
            continue
        skip = bytearray(n)
        for start, end in model.unsynced[path]:
            start, end = min(start, n), min(end, n)
            skip[start:end] = b"\x01" * (end - start)
        lost = sum(1 for i in range(n) if got[i] != want[i] and not skip[i])
        if lost:
            problems.append(f"{path}: {lost} synced bytes lost")
    return problems
