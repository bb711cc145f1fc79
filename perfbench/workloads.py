"""Workload table: which config each workload decodes and what one op does.

An op is one unit of timed work: "forward" is an untaped decode plus the
SCAT write of its mask; "train" is a decode recorded on a tape plus the
backward pass of sum(mask). The seed is filled in per run; the program only
sees the pyramid and parameters generated from it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# Seeds whose outputs are pinned by digests in refs.json: the config default
# and one held out from it.
REF_SEEDS = (0, 1)

_REALISTIC_PYRAMID = {"height": 512, "width": 1024, "channels": [32, 64, 160, 256]}
_REALISTIC_DECODER = {"mixer": "sca", "heads": [1, 2, 5, 8], "dim_head": 32, "num_classes": 19}


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "forward" or "train"
    doc: dict  # config document without the seed

    def config_doc(self, seed: int) -> dict:
        doc = copy.deepcopy(self.doc)
        doc["seed"] = seed
        return doc


_REALISTIC = {"pyramid": _REALISTIC_PYRAMID, "decoder": _REALISTIC_DECODER}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fwd-realistic", "forward", _REALISTIC),
        Workload("fwd-realistic-ca", "forward", {**_REALISTIC, "decoder": {**_REALISTIC_DECODER, "mixer": "ca"}}),
        Workload("fwd-default", "forward", {}),
        Workload("train-256", "train", {**_REALISTIC, "pyramid": {**_REALISTIC_PYRAMID, "height": 256, "width": 256}}),
    )
}
