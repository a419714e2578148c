"""touchlab: desk-scale simulation and benchmarking workbench for a
multimodal artificial fingertip.

Subsystems:

- :mod:`touchlab.core` / :mod:`touchlab.recordlog` -- stream data model and
  the binary record/replay container
- :mod:`touchlab.synth` -- deterministic scenario generators for six sensing
  modalities
- :mod:`touchlab.dsp` -- filters, mel spectrograms, window building, ring-down
  feature extraction
- :mod:`touchlab.optics` -- Monte-Carlo illumination of the hemispherical
  fingertip, scatter sweeps, MTF analysis
- :mod:`touchlab.nn` -- dense network engine (forward/backward/Adam)
- :mod:`touchlab.experiments` -- gas and multimodal fusion classification
  experiments
- :mod:`touchlab.link` -- the six-stage event-to-action latency model
- :mod:`touchlab.reflex` -- the event-to-action reflex benchmark over link
  paths
- :mod:`touchlab.pool` -- independent jobs in one bounded pool of worker
  processes
- :mod:`touchlab.cli` -- command-line front door
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    ACTIONS,
    MATERIALS,
    ModalityKind,
    ModalitySample,
    RecordLog,
    StreamDescriptor,
    WindowSample,
    stream_id_for,
    validate_descriptor,
)
from .recordlog import read_log, write_log

__all__ = [
    "ACTIONS",
    "MATERIALS",
    "ModalityKind",
    "ModalitySample",
    "RecordLog",
    "StreamDescriptor",
    "WindowSample",
    "errors",
    "read_log",
    "stream_id_for",
    "validate_descriptor",
    "write_log",
    "__version__",
]
