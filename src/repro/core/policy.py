"""Dataflow policies: what varies between the original and reformulated EMVS.

The Eventor paper (Sec. 2.2) presents *one* algorithm whose execution is
tuned along three axes — correction scheduling, voting approximation and
quantization.  A :class:`DataflowPolicy` captures those axes as data, so a
single :class:`~repro.core.engine.ReconstructionEngine` can execute any
point of the design space; the original and reformulated pipelines are two
named presets, and an ablation corner is ``dataclasses.replace`` of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.voting import VotingMethod
from repro.fixedpoint.quantize import (
    EVENTOR_SCHEMA,
    FLOAT_SCHEMA,
    QuantizationSchema,
)


class CorrectionScheduling(enum.Enum):
    """When event distortion correction runs relative to aggregation.

    ``PER_FRAME`` is the original dataflow (aggregate raw events first,
    undistort each frame as a batch); ``PER_EVENT`` is Eventor's
    rescheduled order (streaming correction before aggregation, which the
    hardware overlaps with ingest).  The two are numerically identical —
    the reformulation's accuracy impact comes only from voting and
    quantization.
    """

    PER_FRAME = "per-frame"
    PER_EVENT = "per-event"


@dataclass(frozen=True)
class DataflowPolicy:
    """One point of the Fig. 3 design space.

    Attributes
    ----------
    correction:
        Distortion-correction scheduling (see :class:`CorrectionScheduling`).
    voting:
        DSI voting kernel (bilinear reference or Eventor's nearest).
    schema:
        Quantization schema for the back-projection arithmetic.
    integer_scores:
        Store DSI scores as saturating integers (Table 1) instead of
        float64 — the score-storage axis, kept separate from ``schema``
        because the ablations exercise them independently.
    batch_frames:
        Frames the engine buffers per flush for batching backends
        (``numpy-batch``).  A pure scheduling knob: results are
        bit-identical for any value; larger batches amortize per-frame
        Python dispatch, smaller ones bound buffering latency for
        streaming consumers.  Per-frame backends ignore it.
    name:
        Human-readable label used by the CLI and reports.
    """

    correction: CorrectionScheduling = CorrectionScheduling.PER_EVENT
    voting: VotingMethod = VotingMethod.NEAREST
    schema: QuantizationSchema = EVENTOR_SCHEMA
    integer_scores: bool = True
    batch_frames: int = 16
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")

    def score_limit(self) -> int | None:
        """Saturation bound of the DSI score registers (None = unbounded)."""
        return self.schema.dsi_score.raw_max if self.integer_scores else None


#: The original EMVS dataflow (Fig. 3 left): per-frame correction,
#: bilinear voting, full-precision float arithmetic and scores.
ORIGINAL_POLICY = DataflowPolicy(
    correction=CorrectionScheduling.PER_FRAME,
    voting=VotingMethod.BILINEAR,
    schema=FLOAT_SCHEMA,
    integer_scores=False,
    name="original",
)

#: Eventor's reformulated dataflow (Fig. 3 right): streaming per-event
#: correction, nearest voting, Table 1 quantization, 16-bit DSI scores.
REFORMULATED_POLICY = DataflowPolicy(name="reformulated")

#: Named presets for the CLI.
POLICIES = {
    "original": ORIGINAL_POLICY,
    "reformulated": REFORMULATED_POLICY,
}


def resolve_policy(policy: DataflowPolicy | str) -> DataflowPolicy:
    """Accept a policy instance or one of the :data:`POLICIES` names."""
    if isinstance(policy, DataflowPolicy):
        return policy
    try:
        return POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; known: {sorted(POLICIES)}"
        ) from None
