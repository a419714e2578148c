"""Smoke test of the touchlab names the benchmark in ``perfbench/`` calls,
so a change under ``src/`` that breaks the benchmark fails here and not
only when the benchmark runs."""

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
