"""Smoke test of the touchlab names the benchmark in ``perfbench/`` calls,
so a change under ``src/`` that breaks the benchmark fails here and not
only when the benchmark runs."""

import hashlib
import sys
from pathlib import Path

import pytest

from touchlab import cli, recordlog, synth
from touchlab.core import ModalityKind, stream_id_for

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.malformed_logs()))
def test_malformed_logs_exit_2(tmp_path, name):
    path = tmp_path / f"{name}.d36r"
    path.write_bytes(workloads.malformed_logs()[name])
    assert workloads.replay_exit_code(path) == cli.EXIT_CONFIG


#: SHA-256 of each malformed log ``record_replay`` replays; pinned with
#: numpy 2.4.6 on x86_64.
MALFORMED_DIGESTS = {
    "bad_magic": "b8836d387842b4c34add3ebd9a12326e6462b0e37ad8962d9b32bd98bcd6010b",
    "truncated": "62d8a46f874baae8911e3a164ef0db0c2fe7597dc4e4320c0cf133c68a760162",
    "unknown_kind": "53046288e376d48a2dc9f4b43986be855711eefef9f80f99c6b9143578a23585",
    "duplicate_stream": "911e2c893cf0e67f85e2cae4b35006d9400c58592ecd26a05d31c6e446263d33",
    "zero_rate": "ad57201a003f387c080f772e71d772e9a5594ed5e5cb3851c3c40a756d7bffbb",
}


def test_malformed_logs_pinned():
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in workloads.malformed_logs().items()} == MALFORMED_DIGESTS


def test_written_log_reads_back_the_same(tmp_path):
    log = synth.run_scenario(synth.ScenarioScript(seed=1, duration_s=0.2, fingers=(0,)))
    path = tmp_path / "short.d36r"
    n = recordlog.write_log(log, path)
    assert n == path.stat().st_size == workloads.d36r_size(0.2, 1)
    back = recordlog.read_log(path)
    assert workloads.log_digest(back) == workloads.log_digest(log)
    counts = layers._log_counts(back)
    assert counts == {"samples": back.chunk_streams.size,
                      "vt_frames": len(back.stream(stream_id_for(0, ModalityKind.VISUOTACTILE)))}
    assert counts["vt_frames"] == 48


def test_record_replay_scenario_builds():
    script = workloads.RecordReplay.scenario(1)
    assert isinstance(script, synth.ScenarioScript)
    assert script.duration_s == workloads.RecordReplay.DURATION_S
    assert script.fingers == tuple(range(workloads.RecordReplay.FINGERS))
