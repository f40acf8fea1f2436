"""In-memory reference file system used as an oracle in tests.

Implements the same operation surface as the real thing (absolute paths,
create/mkdir/unlink/rmdir/rename, offset-based read/write) with plain
dicts, and raises the same error types.
"""

from __future__ import annotations

from bytefs.errors import (
    AlreadyExists, DirectoryNotEmpty, InvalidArgument, IsADirectory,
    NotADirectory, NotFound,
)


class RefNode:
    def __init__(self, is_dir: bool):
        self.is_dir = is_dir
        self.children: dict[str, "RefNode"] | None = {} if is_dir else None
        self.data = bytearray()


def _holds(tree: RefNode, node: RefNode) -> bool:
    """Whether `node` is `tree` or lies below it."""
    return node is tree or tree.is_dir and any(
        _holds(child, node) for child in tree.children.values())


class RefFS:
    def __init__(self):
        self.root = RefNode(is_dir=True)

    # -- resolution --------------------------------------------------------

    @staticmethod
    def _split(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidArgument("paths must be absolute")
        return [p for p in path.split("/") if p]

    def _resolve(self, path: str) -> RefNode:
        node = self.root
        for name in self._split(path):
            if not node.is_dir:
                raise NotADirectory(path)
            child = node.children.get(name)
            if child is None:
                raise NotFound(path)
            node = child
        return node

    def _parent(self, path: str) -> tuple[RefNode, str]:
        parts = self._split(path)
        if not parts:
            raise InvalidArgument("cannot operate on the root this way")
        node = self.root
        for name in parts[:-1]:
            if not node.is_dir:
                raise NotADirectory(path)
            child = node.children.get(name)
            if child is None:
                raise NotFound(path)
            node = child
        if not node.is_dir:
            raise NotADirectory(path)
        return node, parts[-1]

    # -- operations --------------------------------------------------------

    def create(self, path: str) -> None:
        parent, name = self._parent(path)
        if name in parent.children:
            raise AlreadyExists(path)
        parent.children[name] = RefNode(is_dir=False)

    def mkdir(self, path: str) -> None:
        parent, name = self._parent(path)
        if name in parent.children:
            raise AlreadyExists(path)
        parent.children[name] = RefNode(is_dir=True)

    def unlink(self, path: str) -> None:
        parent, name = self._parent(path)
        node = parent.children.get(name)
        if node is None:
            raise NotFound(path)
        if node.is_dir:
            raise IsADirectory(path)
        del parent.children[name]

    def rmdir(self, path: str) -> None:
        parent, name = self._parent(path)
        node = parent.children.get(name)
        if node is None:
            raise NotFound(path)
        if not node.is_dir:
            raise NotADirectory(path)
        if node.children:
            raise DirectoryNotEmpty(path)
        del parent.children[name]

    def rename(self, old: str, new: str) -> None:
        old_parent, old_name = self._parent(old)
        node = old_parent.children.get(old_name)
        if node is None:
            raise NotFound(old)
        new_parent, new_name = self._parent(new)
        if _holds(node, new_parent):
            raise InvalidArgument(f"cannot move {old} into itself")
        existing = new_parent.children.get(new_name)
        if existing is not None:
            if existing is node:
                return
            if existing.is_dir:
                if not node.is_dir:
                    raise IsADirectory(new)
                if existing.children:
                    raise DirectoryNotEmpty(new)
            elif node.is_dir:
                raise NotADirectory(new)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node

    def write(self, path: str, offset: int, data: bytes) -> None:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        if offset < 0:
            raise InvalidArgument("negative offset")
        if not data:
            return
        if offset > len(node.data):
            node.data += bytes(offset - len(node.data))
        node.data[offset:offset + len(data)] = data

    def read(self, path: str, offset: int, length: int) -> bytes:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset or length")
        return bytes(node.data[offset:offset + length])

    def size(self, path: str) -> int:
        node = self._resolve(path)
        return len(node.data)

    def readdir(self, path: str) -> list[str]:
        node = self._resolve(path)
        if not node.is_dir:
            raise NotADirectory(path)
        return sorted(node.children)

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
            return True
        except (NotFound, NotADirectory):
            return False

    def walk_files(self, prefix: str = "") -> list[str]:
        out = []

        def rec(node: RefNode, path: str):
            for name, child in node.children.items():
                p = f"{path}/{name}"
                if child.is_dir:
                    rec(child, p)
                else:
                    out.append(p)

        rec(self.root, prefix)
        return sorted(out)
