"""Memory requests: the transaction-queue entries the controller
schedules.

The paper's Sec. 4.1 TxQ detail is modelled in the *slot cost*: a
TEMPO-tagged leaf page-table access carries the replay's cache-line
index, which does not fit a standard entry, so it is broken into two
transactions -- hence ``slots() == 2`` for tagged PT requests.
"""

import itertools

from repro.common.errors import ConfigError

KIND_DEMAND = "demand"
KIND_PT = "pt"
KIND_TEMPO_PREFETCH = "tempo_prefetch"
KIND_IMP_PREFETCH = "imp_prefetch"
KIND_WRITEBACK = "writeback"

ALL_KINDS = (
    KIND_DEMAND,
    KIND_PT,
    KIND_TEMPO_PREFETCH,
    KIND_IMP_PREFETCH,
    KIND_WRITEBACK,
)

_PREFETCH_KINDS = (KIND_TEMPO_PREFETCH, KIND_IMP_PREFETCH)

_request_ids = itertools.count()


class MemoryRequest:
    """One transaction headed for DRAM."""

    __slots__ = (
        "req_id",
        "paddr",
        "is_write",
        "kind",
        "is_prefetch",
        "cpu",
        "enqueue_time",
        "not_before",
        # --- page-table metadata ---
        "pt_leaf",
        # --- TEMPO metadata, set on tagged leaf-PT requests ---
        "tempo_tagged",
        "pte",
        "replay_line_index",
        # --- set when a TEMPO prefetch is created ---
        "origin_pt_id",
        # --- DRAM coordinates, decoded once by the controller's enqueue ---
        "channel",
        "bank_index",
        "row",
        "row_offset",
        # --- filled in at service time ---
        "start_time",
        "finish_time",
        "outcome",
    )

    def __init__(
        self,
        paddr,
        kind,
        cpu=0,
        is_write=False,
        enqueue_time=0,
        not_before=0,
        pt_leaf=False,
        tempo_tagged=False,
        pte=None,
        replay_line_index=0,
        origin_pt_id=None,
    ):
        if kind not in ALL_KINDS:
            raise ConfigError(
                "unknown request kind %r" % (kind,),
                context={"kind": kind, "paddr": paddr},
            )
        self.req_id = next(_request_ids)
        self.paddr = paddr
        self.is_write = is_write
        self.kind = kind
        self.is_prefetch = kind in _PREFETCH_KINDS
        self.cpu = cpu
        self.enqueue_time = enqueue_time
        self.not_before = not_before
        self.pt_leaf = pt_leaf
        self.tempo_tagged = tempo_tagged
        self.pte = pte
        self.replay_line_index = replay_line_index
        self.origin_pt_id = origin_pt_id
        self.channel = None
        self.bank_index = None
        self.row = None
        self.row_offset = None
        self.start_time = None
        self.finish_time = None
        self.outcome = None

    @property
    def is_pt(self):
        return self.kind == KIND_PT

    def slots(self):
        """Transaction-queue slots consumed (tagged PT requests carry the
        piggybacked replay-line info in a second entry)."""
        return 2 if self.tempo_tagged else 1

    def __repr__(self):
        return "MemoryRequest(#%d %s 0x%x cpu%d)" % (
            self.req_id,
            self.kind,
            self.paddr,
            self.cpu,
        )
