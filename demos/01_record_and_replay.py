"""Record a scripted multimodal scenario and replay it bit-exactly.

A scenario is a seeded script of contact events.  Running it synthesizes
all six sensor streams (visuotactile frames, 4-channel surface audio,
4-channel pressure, inertial, gas, heat) for each finger and packs them
into the binary record log.  The same (script, seed) always produces the
same bytes, which is what makes every benchmark in this repo replayable.
"""

import tempfile
from pathlib import Path

from touchlab import read_log, write_log
from touchlab.core import ModalityKind
from touchlab.recordlog import log_to_bytes
from touchlab.synth import Event, ObjectSpec, ScenarioScript, run_scenario


def main():
    script = ScenarioScript(
        seed=42,
        duration_s=2.0,
        fingers=(0, 1),
        rates={ModalityKind.VISUOTACTILE: 60.0,
               ModalityKind.SURFACE_AUDIO: 24_000.0},
        events=[
            Event(0.3, 0.36, "tap", ObjectSpec("wood"), finger_ids=(0, 1)),
            Event(0.8, 1.8, "slide", ObjectSpec("silicone"), finger_ids=(0, 1)),
        ],
    )

    log = run_scenario(script)
    print(f"synthesized {log.chunk_streams.size} samples on {len(log.descriptors)} streams")
    for sid in sorted(log.descriptors):
        d = log.descriptors[sid]
        n = len(log.stream(sid))
        print(f"  stream {sid:2d}  {d.kind.name.lower():17s} {d.rate_hz:8g} Hz  "
              f"{n:6d} samples")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.d36r"
        n_bytes = write_log(log, path)
        back = read_log(path)
        print(f"\nwrote {n_bytes} bytes; replay is byte-identical: "
              f"{log_to_bytes(back) == path.read_bytes()}")

    # Determinism: the same script again gives the same bytes.
    again = run_scenario(ScenarioScript(
        seed=42, duration_s=2.0, fingers=(0, 1),
        rates={ModalityKind.VISUOTACTILE: 60.0,
               ModalityKind.SURFACE_AUDIO: 24_000.0},
        events=script.events))
    print(f"re-running the script reproduces the log: "
          f"{log_to_bytes(again) == log_to_bytes(log)}")


if __name__ == "__main__":
    main()
