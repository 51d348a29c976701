"""RINGI — the Ring Interface (Section III-B-4, Fig 4).

Adjacent clusters' SLDUs are joined in a bidirectional ring carrying
64 bits/cycle per direction.  Slide-by-1 moves one boundary element per
cluster to the neighbour; larger slides take multiple transfers or
multi-hop bypasses; inter-cluster reduction runs a log-tree whose later
steps cross doubling hop distances.  Extra register cuts add one cycle to
every hop (the Fig 5/7 "+1 register" experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RingiModel:
    """Ring interconnect timing: per-hop latency law."""
    clusters: int
    hop_latency: int = 2
    extra_regs: int = 0

    @property
    def hop_cycles(self) -> int:
        return self.hop_latency + self.extra_regs

    # ------------------------------------------------------------------
    # Slides
    # ------------------------------------------------------------------
    def slide_cross_elems(self, amount: int, vl: int) -> int:
        """Elements each cluster must export for a slide of ``amount``.

        For slide-by-1 exactly one boundary element crosses per cluster
        boundary; for larger amounts up to a whole cluster's share of the
        vector crosses (then the transfer is a bypass of whole chunks).
        """
        if self.clusters <= 1 or vl == 0:
            return 0
        per_cluster = max(1, math.ceil(vl / self.clusters))
        return min(max(amount, 0), per_cluster)

    def slide_latency(self, amount: int, vl: int) -> float:
        """Extra cycles a slide pays for ring traversal.

        The boundary elements ride the ring at 1 element/cycle/direction,
        pipelined with the local shuffle, so the visible penalty is the
        hop latency plus the serialization of the crossing elements.
        Slides larger than a cluster's share travel extra hops.
        """
        if self.clusters <= 1 or vl == 0 or amount == 0:
            return 0.0
        per_cluster = max(1, math.ceil(vl / self.clusters))
        hops = 1 + min(self.clusters - 1, (amount - 1) // per_cluster)
        crossing = self.slide_cross_elems(amount, vl)
        return hops * self.hop_cycles + (crossing - 1)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @property
    def reduction_steps(self) -> int:
        return int(math.log2(self.clusters)) if self.clusters > 1 else 0

    def reduction_ring_cycles(self, op_latency: float) -> float:
        """Inter-cluster log-tree time (Section III-B-4).

        Step ``k`` of the tree moves partial results across ``2**k`` hops
        and then spends ``op_latency`` combining them; total ring distance
        is therefore C-1 hops.
        """
        if self.clusters <= 1:
            return 0.0
        hops_total = self.clusters - 1  # sum of 2**k for k < log2(C)
        return hops_total * self.hop_cycles + self.reduction_steps * op_latency
