"""A byte-level shadow oracle of the M-SSD, for tests.

`ShadowMssd` is an `Mssd` that also keeps the write log's visibility
rule byte by byte: a transaction's writes show over the committed bytes
while it is active, land at commit, and vanish at abort or under a later
block write to their page.  Without a write log they go straight to
flash, as plain writes do.  A write that starts inside a cacheline is
padded as the device pads it.

The shadow records only what the device accepted: an access lands after
the model's own call returns, and a byte write that the full log refuses
(`BackPressure`) lands nothing.  A plain write is refused only when the
entries of open transactions fill the log alone, so it took none of its
cachelines; a transaction ends with its refused write, and that abort,
like a conflict's, reaches the shadow through `tx_abort` inside
`_write`.
"""

from __future__ import annotations

from bytefs.device import CACHELINE, DeviceConfig, spans
from bytefs.mssd import Mssd


class ShadowMssd(Mssd):
    def __init__(self, config: DeviceConfig | None = None, *,
                 log_enabled: bool = True):
        super().__init__(config, log_enabled=log_enabled)
        # committed bytes per page, and each active transaction's writes
        self.shadow: dict[int, bytearray] = {}
        self.shadow_tx: dict[int, list[tuple[int, bytes]]] = {}

    def _shadow_page(self, lpa: int, txids) -> bytearray:
        """A page's committed bytes under the writes of the active
        transactions `txids`."""
        page_size = self.config.page_size
        page = bytearray(self.shadow.get(lpa, bytes(page_size)))
        for txid in txids:
            for a, d in self.shadow_tx.get(txid, ()):
                if a // page_size == lpa:
                    page[a % page_size:a % page_size + len(d)] = d
        return page

    def _padded(self, addr: int, data: bytes, txid: int
                ) -> tuple[int, bytes]:
        """A page-local piece, started on its cacheline with the bytes
        before it that its writer reads."""
        head_pad = addr % CACHELINE
        if not head_pad:
            return addr, data
        lpa, off = divmod(addr - head_pad, self.config.page_size)
        page = self._shadow_page(lpa, (txid,))
        return addr - head_pad, bytes(page[off:off + head_pad]) + data

    def _land(self, addr: int, data: bytes, txid: int) -> None:
        if txid and self.log_enabled:
            self.shadow_tx.setdefault(txid, []).append((addr, data))
            return
        lpa, off = divmod(addr, self.config.page_size)
        page = self.shadow.setdefault(lpa, bytearray(self.config.page_size))
        page[off:off + len(data)] = data

    def shadow_read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        for lpa, off, take, _ in spans(addr, length, self.config.page_size):
            out += self._shadow_page(lpa, self.shadow_tx)[off:off + take]
        return bytes(out)

    # -- the model's accesses, recorded once the device takes them ---------

    def _write(self, txid: int, addr: int, data: bytes, category: str,
               locks: bool) -> None:
        page_size = self.config.page_size
        # padded from the state before the write: its pieces are on
        # different pages, so none pads with another's bytes
        pieces = [self._padded(lpa * page_size + off, data[pos:pos + take],
                               txid)
                  for lpa, off, take, pos in spans(addr, len(data),
                                                   page_size)]
        super()._write(txid, addr, data, category, locks)
        for piece_addr, piece in pieces:
            self._land(piece_addr, piece, txid)

    def block_write(self, lpa: int, data: bytes, category: str = "untagged"
                    ) -> None:
        super().block_write(lpa, data, category)
        page_size = self.config.page_size
        self._land(lpa * page_size, data, 0)
        for writes in self.shadow_tx.values():
            writes[:] = [(a, d) for a, d in writes if a // page_size != lpa]

    def tx_commit(self, txid: int) -> None:
        super().tx_commit(txid)
        for addr, data in self.shadow_tx.pop(txid, ()):
            self._land(addr, data, 0)

    def tx_abort(self, txid: int) -> None:
        super().tx_abort(txid)
        self.shadow_tx.pop(txid, None)
