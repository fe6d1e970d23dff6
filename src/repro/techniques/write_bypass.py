"""Writeback bypassing for low-reuse blocks (paper group 2).

A cache-bypass scheme in the spirit of the write-minimisation work the
paper cites ([14], [16], [17], [21]): a writeback whose block has not
been *read* recently is predicted dead and forwarded straight to DRAM
instead of being programmed into the NVM data array.  The predictor is
a bounded recency filter over demand-read blocks — cheap, conservative,
and wrong only in the direction of extra DRAM writes (never lost data).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError
from repro.techniques.base import Technique


class ReuseWriteBypass(Technique):
    """Bypass writebacks whose block shows no recent read reuse."""

    name = "write-bypass"

    def __init__(self, filter_blocks: int = 8192) -> None:
        if filter_blocks <= 0:
            raise ConfigurationError("filter must hold at least one block")
        self.filter_blocks = filter_blocks
        # Recency filter over read blocks, least recent first.
        self._recent_reads: "OrderedDict[int, None]" = OrderedDict()
        #: Writebacks sent around the LLC.
        self.bypassed = 0

    def bypass_write_mask(self, blocks: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """One pass of the read filter over the stream: a write is
        bypassed when its block is not among the last ``filter_blocks``
        distinct blocks read before it.  The filter only sees demand
        reads, so the mask does not depend on replay outcomes."""
        recent = self._recent_reads
        capacity = self.filter_blocks
        mask = []
        for block, is_write in zip(blocks.tolist(), writes.tolist()):
            if is_write:
                mask.append(block not in recent)
            else:
                mask.append(False)
                if block in recent:
                    recent.move_to_end(block)
                else:
                    if len(recent) >= capacity:
                        recent.popitem(last=False)
                    recent[block] = None
        out = np.array(mask, dtype=bool)
        self.bypassed += int(out.sum())
        return out
