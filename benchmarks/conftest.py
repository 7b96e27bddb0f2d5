"""Shared benchmark fixtures and helpers.

Every bench regenerates one table or figure of the paper: it runs the
experiment, prints the reproduced artifact next to the paper's published
values, and appends the rendered text to ``benchmarks/results/`` so the
numbers survive pytest's output capture.

Sequences are generated once per session (in-process cache) at ``full``
quality; accuracy experiments run on fixed sub-second time slices to keep
a full bench session within minutes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import EMVSConfig
from repro.core.voting import VotingMethod
from repro.eval import experiments
from repro.events.datasets import SEQUENCE_NAMES, load_sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
# The directory is gitignored (artifacts are produced per run and, in CI,
# uploaded); guarantee it exists before any bench writes a BENCH_*.json
# directly.
os.makedirs(RESULTS_DIR, exist_ok=True)

#: Sequence quality for the whole bench session.  ``full`` is evaluation
#: fidelity; CI's bench-smoke job exports ``REPRO_BENCH_QUALITY=fast`` to
#: run the perf-bar benches in quick mode (~4x fewer events) — relative
#: claims (speedup bars, breakdown structure) hold at either quality,
#: absolute accuracy figures are only reproduced at ``full``.
BENCH_QUALITY = os.environ.get("REPRO_BENCH_QUALITY", "full")

#: Per-sequence evaluation windows (seconds) — chosen mid-trajectory where
#: parallax is well developed, sized to a few hundred 1024-event frames.
EVAL_WINDOWS = {
    "simulation_3planes": (0.8, 1.2),
    "simulation_3walls": (0.8, 1.2),
    "slider_close": (0.6, 1.0),
    "slider_far": (0.6, 1.0),
}

#: Accuracy-experiment configuration (Nz matches the reference EMVS).
ACCURACY_CONFIG = EMVSConfig(n_depth_planes=100, frame_size=1024)


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    print("\n" + text)


def results_path(name: str) -> str:
    """Absolute path of a results artifact, with the directory guaranteed.

    Every bench that writes a ``BENCH_*.json`` directly goes through this
    (or :func:`update_bench_json`) so no writer depends on import-order
    side effects for the directory to exist.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, name)


def update_bench_json(name: str, payload: dict) -> None:
    """Merge ``payload`` into ``benchmarks/results/<name>`` (top-level keys).

    Merging (rather than overwriting) lets independent benches contribute
    sections to one artifact — e.g. the backend comparison writes the
    ``backends`` section of ``BENCH_backends.json`` and the hot-path
    micro-benches add a ``kernels`` section — in either execution order.
    """
    path = results_path(name)
    data: dict = {}
    if os.path.exists(path):
        with open(path) as f:
            try:
                data = json.load(f)
            except ValueError:
                data = {}
    data.update(payload)
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


@pytest.fixture(scope="session")
def sequences():
    """The four evaluation sequences at session quality (cached in-process)."""
    return {
        name: load_sequence(name, quality=BENCH_QUALITY) for name in SEQUENCE_NAMES
    }


def eval_events(seq):
    t0, t1 = EVAL_WINDOWS[seq.name]
    return seq.events.time_slice(t0, t1)


def run_variant(seq, voting: VotingMethod, quantized: bool):
    """Score one (voting, quantization) variant on the bench window."""
    return experiments.run_variant(
        seq, eval_events(seq), voting, quantized, ACCURACY_CONFIG
    )
