"""Runtime substrates: distributed arrays, I-structures, tokens, frames."""

from repro.runtime.arrays import (
    ArrayHeader,
    flat_size,
    index_space_diagram,
    num_pages,
    offset_fn,
    page_map_diagram,
    row_strides,
    segment_of_page,
    segment_page_range,
)
from repro.runtime.frames import BLOCKED, DONE, READY, RUNNING, Frame
from repro.runtime.istructure import IStructureSegment
from repro.runtime.tokens import (
    AllocRequestMsg,
    DirectToken,
    MatchToken,
    Message,
    PageResponseMsg,
    ReadRequestMsg,
    RemoteWriteMsg,
    ReturnAddress,
    Token,
    TokenBatchMsg,
    ValueResponseMsg,
)

__all__ = [
    "AllocRequestMsg",
    "ArrayHeader",
    "BLOCKED",
    "DONE",
    "DirectToken",
    "Frame",
    "IStructureSegment",
    "MatchToken",
    "Message",
    "PageResponseMsg",
    "READY",
    "RUNNING",
    "ReadRequestMsg",
    "RemoteWriteMsg",
    "ReturnAddress",
    "Token",
    "TokenBatchMsg",
    "ValueResponseMsg",
    "flat_size",
    "index_space_diagram",
    "num_pages",
    "offset_fn",
    "page_map_diagram",
    "row_strides",
    "segment_of_page",
    "segment_page_range",
]
