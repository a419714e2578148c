import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import touchlab
from touchlab import experiments, link, recordlog, synth
from touchlab.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_OK, main
from touchlab.core import ModalityKind, ModalitySample, RecordLog, StreamDescriptor

SCENARIO = {
    "seed": 11,
    "duration_s": 1.5,
    "fingers": [0],
    "rates": {"visuotactile": 30, "surface_audio": 16000},
    "events": [
        {"t_start": 0.4, "t_end": 0.46, "kind": "tap", "material": "wood",
         "finger_ids": [0]},
    ],
}

BOTTLE_SCENARIO = {
    "seed": 3,
    "duration_s": 2.2,
    "fingers": [0],
    "rates": {"visuotactile": 30, "surface_audio": 48000},
    "events": [
        {"t_start": t, "t_end": t + 0.05, "kind": "tap",
         "material": "liquid-coffee", "fill_fraction": 1.0, "finger_ids": [0]}
        for t in (0.4, 1.0, 1.6)
    ],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRecordReplay:
    def test_record_then_replay_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, SCENARIO)
        log1 = tmp_path / "a.d36r"
        log2 = tmp_path / "b.d36r"
        assert main(["record", scenario, "--out", str(log1)]) == EXIT_OK
        assert main(["replay", str(log1), "--out", str(log2)]) == EXIT_OK
        assert log1.read_bytes() == log2.read_bytes()

    def test_replay_in_place_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path, SCENARIO)
        path = tmp_path / "a.d36r"
        assert main(["record", scenario, "--out", str(path)]) == EXIT_OK
        before = path.read_bytes()
        assert main(["replay", str(path), "--out", str(path)]) == EXIT_OK
        assert path.read_bytes() == before

    def test_partial_item_payload_exit_2(self, tmp_path):
        log = RecordLog()
        log.add_stream(StreamDescriptor.default(3, ModalityKind.INERTIAL))
        log.append(ModalitySample(3, 0, np.zeros(3, dtype="<f4")))
        data = bytearray(recordlog.log_to_bytes(log)[:-1])
        struct.pack_into("<I", data, len(data) - 11 - 4, 11)  # an 11-byte chunk
        path = tmp_path / "partial.d36r"
        path.write_bytes(bytes(data))
        assert main(["replay", str(path)]) == EXIT_CONFIG

    def test_same_seed_identical_files(self, tmp_path):
        scenario = write_scenario(tmp_path, SCENARIO)
        a = tmp_path / "a.d36r"
        b = tmp_path / "b.d36r"
        main(["record", scenario, "--out", str(a)])
        main(["record", scenario, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"duration_s": 1.0,\n  "events": [}')
        assert main(["record", str(path), "--out", str(tmp_path / "x")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    @pytest.mark.parametrize("doc", [
        {"duration_s": -1},
        {"duration_s": "nan"},
        {"duration_s": 1.0, "fingers": ["a"]},
        [1, 2],
        {"duration_s": 1.0, "seed": -1},
        {"duration_s": 1e400},
        {"duration_s": 1.0, "rates": {"heat": "inf"}},
        {"duration_s": 1.0, "events": [{"t_start": "nan", "t_end": 0.5,
                                        "kind": "tap", "material": "wood"}]},
        {"duration_s": 1.0, "events": [{"t_start": 0.1, "t_end": 0.2,
                                        "kind": "hold", "material": "wood",
                                        "temperature_c": "hot"}]},
        {"duration_s": 1.0, "rates": [240]},
        {"duration_s": 1e300, "fingers": [0]},
    ], ids=["negative_duration", "nan_duration", "string_finger", "not_object",
            "negative_seed", "infinite_duration", "infinite_rate", "nan_time",
            "string_temperature", "rates_list", "huge_duration"])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "x.d36r"
        assert main(["record", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err
        assert not out.exists()

    def test_undecodable_scenario_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"duration_s": "\xff"}')
        assert main(["record", str(path), "--out", str(tmp_path / "x")]) \
            == EXIT_CONFIG

    def test_semantic_error_exit_2(self, tmp_path):
        doc = dict(SCENARIO)
        doc["events"] = [{"t_start": 0.2, "t_end": 0.1, "kind": "tap",
                          "material": "wood"}]
        scenario = write_scenario(tmp_path, doc)
        assert main(["record", scenario, "--out", str(tmp_path / "x")]) \
            == EXIT_CONFIG

    def test_corrupted_magic_exit_2(self, tmp_path):
        scenario = write_scenario(tmp_path, SCENARIO)
        log = tmp_path / "a.d36r"
        main(["record", scenario, "--out", str(log)])
        data = bytearray(log.read_bytes())
        data[:4] = b"ZZZZ"
        log.write_bytes(bytes(data))
        assert main(["replay", str(log)]) == EXIT_CONFIG

    def test_audio_declaring_32_bit_samples_exit_2(self, tmp_path):
        # The second 18-byte descriptor is stream 1, finger 0's audio; its
        # sample_bits byte is 13 bytes in.
        scenario = write_scenario(tmp_path, SCENARIO)
        log = tmp_path / "a.d36r"
        main(["record", scenario, "--out", str(log)])
        data = bytearray(log.read_bytes())
        assert data[8 + 18 + 2] == ModalityKind.SURFACE_AUDIO.value
        assert data[8 + 18 + 13] == 16
        data[8 + 18 + 13] = 32
        log.write_bytes(bytes(data))
        assert main(["replay", str(log)]) == EXIT_CONFIG

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["replay", str(tmp_path / "nope.d36r")]) == 3

    # Offsets into a two-stream D36R file: 8-byte header, then 18-byte
    # descriptors (stream_id u16, kind u8, rate f64, channels u16, ...),
    # then 14-byte chunk headers (stream_id u16, t_ns u64, length u32).
    @pytest.mark.parametrize("offset,raw", [
        (8 + 2, bytes([99])),                      # unknown kind code
        (8 + 18, struct.pack("<H", 2)),            # duplicate stream id
        (8 + 3, struct.pack("<d", 0.0)),           # zero rate
        (8 + 11, struct.pack("<H", 0)),            # zero channels
        (8 + 2 * 18 + (14 + 16) + 2, struct.pack("<Q", 0)),  # t goes back
        (8 + 3, struct.pack("<d", float("inf"))),   # rate not finite
        (8 + 3, struct.pack("<d", 1e300)),         # rate above MAX_RATE_HZ
    ], ids=["unknown_kind", "duplicate_stream", "zero_rate", "zero_channels",
            "backwards_timestamp", "inf_rate", "huge_rate"])
    def test_malformed_log_exit_2(self, tmp_path, offset, raw):
        assert main(["replay", self.malformed_log(tmp_path, offset, raw)]) \
            == EXIT_CONFIG

    @staticmethod
    def malformed_log(tmp_path, offset, raw) -> str:
        """A pressure stream 2 (samples at 1 and 2 ms) and an inertial
        stream 3 (one at 5 ms), ``raw`` written over the bytes at ``offset``."""
        log = RecordLog()
        for sid, kind in ((2, ModalityKind.SURFACE_PRESSURE),
                          (3, ModalityKind.INERTIAL)):
            log.add_stream(StreamDescriptor.default(sid, kind))
        for k in range(1, 3):
            log.append(ModalitySample(2, k * 1_000_000, np.full(4, k, dtype="<f4")))
        log.append(ModalitySample(3, 5_000_000, np.zeros(3, dtype="<f4")))
        data = bytearray(recordlog.log_to_bytes(log))
        data[offset:offset + len(raw)] = raw
        path = tmp_path / "bad.d36r"
        path.write_bytes(bytes(data))
        return str(path)

    def test_backwards_timestamp_names_the_stream(self, tmp_path, capsys):
        path = self.malformed_log(tmp_path, 8 + 2 * 18 + (14 + 16) + 2,
                                  struct.pack("<Q", 0))
        assert main(["replay", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: stream 2: timestamp 0 after 1000000\n"


class TestBenchCommands:
    def test_bench_latency_defaults(self, tmp_path, capsys):
        out = tmp_path / "latency.json"
        code = main(["bench-latency", "--runs", "2000", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        rows = {(r["path"], r["stage"]): r for r in rep["rows"]}
        assert rows[("host", "total")]["mean"] == pytest.approx(3146, rel=0.10)
        assert rows[("device", "total")]["mean"] == pytest.approx(683, rel=0.10)
        text = capsys.readouterr().err
        assert "host" in text and "fail" in text
        assert "device" in text and "pass" in text

    def test_bench_latency_no_jitter_exact(self, tmp_path):
        out = tmp_path / "l.json"
        main(["bench-latency", "--runs", "1", "--no-jitter", "--format",
              "json", "--out", str(out)])
        rep = json.loads(out.read_text())
        rows = {(r["path"], r["stage"]): r for r in rep["rows"]}
        assert rows[("host", "total")]["mean"] == pytest.approx(3146.0)
        assert rows[("device", "total")]["mean"] == pytest.approx(683.0)

    def test_bench_latency_verdict_block(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["bench-latency", "--runs", "1", "--no-jitter", "--format",
                     "json", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert len(rep["rows"]) == 14
        assert {r["stage"] for r in rep["rows"]} == {*link.STAGE_NAMES, "total"}
        budget = rep["budget_us"]
        totals = {r["path"]: r["mean"] for r in rep["rows"] if r["stage"] == "total"}
        assert rep["verdict"] == {
            name: {"total_us": total, "margin_us": budget - total,
                   "passed": total <= budget}
            for name, total in totals.items()}
        assert not rep["verdict"]["host"]["passed"]
        assert rep["verdict"]["device"]["passed"]

    def test_bench_reflex(self, tmp_path):
        out = tmp_path / "reflex.json"
        code = main(["bench-reflex", "--trials", "300", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        by_path = {r["path"]: r for r in rep["rows"]}
        assert by_path["device"]["mean"] < by_path["host"]["mean"]
        assert by_path["legacy"]["mean"] > 6000

    def test_bench_mtf(self, tmp_path):
        out = tmp_path / "mtf.json"
        code = main(["bench-mtf", "--region", "1", "--spacings", "5,6,7",
                     "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        rows = {r["spacing_um"]: r for r in json.loads(out.read_text())["rows"]}
        assert not rows[5.0]["resolvable"]
        assert rows[7.0]["resolvable"]

    def test_bench_optics_small(self, tmp_path):
        out = tmp_path / "optics.json"
        code = main(["bench-optics", "--alpha-sweep", "5,lambertian",
                     "--photons", "150000", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert len(rep["rows"]) == 2
        assert "recommended" in rep

    def test_report_roundup(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["bench-mtf", "--region", "1", "--spacings", "6",
              "--format", "json", "--out", str(out)])
        assert main(["report", str(out)]) == EXIT_OK
        assert "bench-mtf" in capsys.readouterr().out

    def test_report_empty_exit_4(self, tmp_path):
        assert main(["report", str(tmp_path / "none.json")]) == EXIT_EMPTY

    def _report_skips(self, tmp_path, capsys, data: bytes):
        """``report`` skips a file holding ``data`` and reads the good one
        beside it; alone, the file leaves nothing readable."""
        good = tmp_path / "good.json"
        main(["bench-mtf", "--region", "1", "--spacings", "6",
              "--format", "json", "--out", str(good)])
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        capsys.readouterr()
        assert main(["report", str(bad), str(good)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith(f"skipping {bad}: ")
        assert "bench-mtf" in captured.out
        assert main(["report", str(bad)]) == EXIT_EMPTY

    def test_report_skips_json_array(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b'[{"command": "bench-mtf"}]')

    def test_report_skips_rows_not_a_list(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b'{"command": "bench-mtf", "rows": 5}')

    def test_report_skips_undecodable_bytes(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b'{"command": "\xff"}')

    def test_report_skips_deep_nesting(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b"[" * 100_000)

    def test_report_skips_csv_field_not_json(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b"# schema=1\n# command=bench-mtf\n")

    def test_report_skips_csv_field_without_value(self, tmp_path, capsys):
        self._report_skips(tmp_path, capsys, b"# schema=1\n# command\n")

    def test_report_reads_csv_as_json(self, tmp_path, capsys):
        """One report saved as JSON and as CSV gives one summary line."""
        out = tmp_path / "m.json"
        main(["bench-mtf", "--region", "1", "--spacings", "6,9",
              "--format", "json", "--out", str(out)])
        (tmp_path / "m.csv").write_text(
            touchlab.cli._render(json.loads(out.read_text()), "csv"))
        capsys.readouterr()
        assert main(["report", str(out), str(tmp_path / "m.csv")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[1] for line in lines] == \
            [lines[0].split(": ", 1)[1]] * 2
        assert lines[0].endswith(" rows=2")

    @pytest.mark.parametrize("argv", [
        ["bench-reflex", "--trials", "5"],
        ["bench-latency", "--runs", "0"],
        ["train-gas", "--approaches", "2", "--duration", "10",
         "--integration", "20"],
        ["train-gas", "--approaches", "2", "--duration", "10",
         "--integration", "5,x"],
        ["bench-mtf", "--spacings", "x"],
        ["bench-optics", "--alpha-sweep", "5,x"],
        ["bench-optics", "--alpha-sweep", "30", "--photons", "100000"],
        ["bench-optics", "--alpha-sweep", "0.5", "--photons", "100000"],
        ["bench-optics", "--alpha-sweep", "nan", "--photons", "100000"],
        ["bench-optics", "--alpha-sweep", "1,30", "--photons", "100000"],
        ["train-gas", "--approaches", "2", "--duration", "10",
         "--integration=-5,0"],
        ["train-gas", "--approaches", "2", "--duration", "10",
         "--integration", "nan"],
        ["train-gas", "--approaches", "2", "--duration", "nan",
         "--integration", "5"],
        ["bench-mtf", "--spacings=-3,0"],
        ["bench-mtf", "--spacings", "0"],
        ["bench-mtf", "--spacings", "nan"],
        ["bench-mtf", "--spacings", "1e300"],
        ["bench-mtf", "--spacings", "2000"],
        ["bench-latency", "--runs", "100", "--budget-us", "nan"],
        ["train-gas", "--duration", "1e300"],
        ["bench-latency", "--runs", "10000001"],
        ["bench-reflex", "--trials", "1000001"],
        ["bench-optics", "--alpha-sweep", "5", "--photons", "10000001"],
        ["bench-mtf", "--spacings", ","],
        ["bench-mtf", "--spacings", " "],
        ["train-fusion", "--trials-per-class", "10001"],
        ["train-gas", "--approaches", "100001"],
        ["bench-latency", "--runs", "10", "--seed", "-1"],
        ["bench-reflex", "--trials", "300", "--seed", "-1"],
        ["bench-optics", "--alpha-sweep", "5", "--photons", "150000", "--seed", "-1"],
        ["bench-mtf", "--seed", "-1"],
        ["train-gas", "--approaches", "2", "--duration", "10",
         "--integration", "5", "--seed", "-1"],
        ["train-fusion", "--trials-per-class", "1", "--seed", "-1"],
        ["analyze-liquid", "missing.d36r", "--seed", "-1"],
        ["record", "missing.json", "--seed", "-1"],
        ["train-fusion", "--trials-per-class", "1", "--modalities", "audio,audio"],
    ])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


REPORT_COMMANDS = [
    ["bench-latency", "--runs", "10"],
    ["bench-reflex", "--trials", "100"],
    ["bench-optics", "--alpha-sweep", "5", "--photons", "100000"],
    ["bench-mtf", "--region", "1", "--spacings", "6"],
    ["train-gas", "--approaches", "2", "--duration", "10", "--integration", "5"],
    ["train-fusion", "--trials-per-class", "1", "--modalities", "audio"],
    ["analyze-liquid", "LOG"],
]


@pytest.fixture(scope="module")
def bottle_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bottle")
    log = tmp / "bottle.d36r"
    assert main(["record", write_scenario(tmp, BOTTLE_SCENARIO),
                 "--out", str(log)]) == EXIT_OK
    return str(log)


@pytest.fixture(scope="module")
def fusion_windows():
    """Built once: synthesis is most of a small ``train-fusion`` run."""
    return list(experiments.iter_fusion_windows(trials_per_class=1, seed=0))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=lambda argv: argv[0])
def test_stdout_holds_only_the_report(monkeypatch, capsys, bottle_log,
                                      fusion_windows, argv, fmt):
    """Without ``--out`` stdout is the report alone; summaries go to stderr."""
    monkeypatch.delenv("TOUCHLAB_OUT_DIR", raising=False)
    monkeypatch.setattr(experiments, "iter_fusion_windows",
                        lambda **kwargs: iter(fusion_windows))
    capsys.readouterr()
    assert main([bottle_log if a == "LOG" else a for a in argv]
                + ["--format", fmt]) == EXIT_OK
    captured = capsys.readouterr()
    if fmt == "json":
        assert "rows" in json.loads(captured.out)
    else:
        assert captured.out.startswith("# schema=")
    assert captured.err


@pytest.mark.parametrize("argv", [REPORT_COMMANDS[0], REPORT_COMMANDS[2],
                                  REPORT_COMMANDS[4]], ids=lambda argv: argv[0])
def test_csv_fields_are_json(tmp_path, argv):
    """Every ``# key=`` line of a CSV report holds one JSON value."""
    out = tmp_path / "report.csv"
    assert main(argv + ["--format", "csv", "--out", str(out)]) == EXIT_OK
    fields = {}
    for line in out.read_text().splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            assert sep, line
            fields[key] = json.loads(value)
    assert fields["schema"] == 1 and fields["command"] == argv[0]
    assert len(fields["config_hash"]) == 16
    assert {"bench-latency": "verdict", "bench-optics": "recommended_band",
            "train-gas": "materials"}[argv[0]] in fields


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unknown_report_type_raises(fmt):
    """A value JSON cannot hold is a TypeError, not its ``str()``."""
    with pytest.raises(TypeError):
        touchlab.cli._render(touchlab.cli._report("x", {}, [], {"odd": {1, 2}}), fmt)


class TestAnalyzeLiquid:
    def test_full_bottle(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, BOTTLE_SCENARIO)
        log = tmp_path / "bottle.d36r"
        main(["record", scenario, "--out", str(log)])
        out = tmp_path / "liquid.json"
        code = main(["analyze-liquid", str(log), "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3
        assert all(r["predicted_fill"] == "full" for r in rows)

    @pytest.mark.parametrize("rate", [float("inf"), 1e300], ids=["inf", "1e300"])
    def test_bad_audio_rate_exit_2(self, tmp_path, capsys, bottle_log, rate):
        data = bytearray(Path(bottle_log).read_bytes())
        struct.pack_into("<d", data, 8 + 18 + 3, rate)  # stream 1: finger 0's audio
        path = tmp_path / "bad_rate.d36r"
        path.write_bytes(bytes(data))
        assert main(["analyze-liquid", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: rate_hz must be in")

    def test_no_taps_exit_4(self, tmp_path):
        doc = dict(BOTTLE_SCENARIO)
        doc["events"] = []
        scenario = write_scenario(tmp_path, doc)
        log = tmp_path / "quiet.d36r"
        main(["record", scenario, "--out", str(log)])
        assert main(["analyze-liquid", str(log)]) == EXIT_EMPTY


    def test_audio_below_10_hz_does_not_hang(self, tmp_path, time_limit):
        doc = dict(BOTTLE_SCENARIO)
        # Nine audio frames a second: the 0.1 s quiet gap ending a tap
        # episode is zero frames long.
        doc["rates"] = {"visuotactile": 30, "surface_audio": 9}
        doc["events"] = [dict(BOTTLE_SCENARIO["events"][0], t_end=1.0)]
        scenario = write_scenario(tmp_path, doc)
        log = tmp_path / "slow.d36r"
        assert main(["record", scenario, "--out", str(log)]) == EXIT_OK
        with time_limit(20):
            code = main(["analyze-liquid", str(log)])
        assert code in (EXIT_OK, EXIT_EMPTY)


class TestTrainGas:
    def test_small_run(self, tmp_path):
        out = tmp_path / "gas.json"
        confusion = tmp_path / "confusion.csv"
        code = main(["train-gas", "--approaches", "12", "--duration", "30",
                     "--integration", "6,30", "--format", "json",
                     "--out", str(out), "--confusion-out", str(confusion)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        lines = confusion.read_text().strip().split("\n")
        assert lines[0].startswith("truth\\predicted,")
        assert len(lines) == 7

    def test_pinned_rows(self, tmp_path):
        out = tmp_path / "gas.json"
        assert main(["train-gas", "--format", "json", "--seed", "0",
                     "--approaches", "12", "--duration", "30",
                     "--integration", "6,15,30", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["rows"] == [
            {"integration_s": 6.0, "accuracy": 0.2916666666666667,
             "n_train": 48, "n_test": 24},
            {"integration_s": 15.0, "accuracy": 0.6666666666666666,
             "n_train": 48, "n_test": 24},
            {"integration_s": 30.0, "accuracy": 0.9166666666666666,
             "n_train": 48, "n_test": 24},
        ]


class TestTrainingExitCodes:
    @pytest.mark.parametrize("argv,code", [
        (["train-fusion", "--trials-per-class", "0"], EXIT_EMPTY),
        (["train-gas", "--approaches", "0"], EXIT_CONFIG),
        (["train-gas", "--duration", "0"], EXIT_CONFIG),
        (["train-gas", "--approaches", "1", "--duration", "10",
          "--integration", "6"], EXIT_EMPTY),
        (["train-gas", "--integration", ","], EXIT_CONFIG),
    ], ids=["fusion_no_trials", "gas_no_approaches", "gas_zero_duration",
            "gas_no_test_rows", "gas_no_integration_times"])
    def test_exit_code(self, tmp_path, capsys, argv, code):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("modalities", ["sonar", ",", "audio,sonar"])
    def test_fusion_checks_modalities_before_windows(self, monkeypatch, tmp_path,
                                                     capsys, modalities):
        def fail(*args, **kwargs):
            raise AssertionError("fusion windows were built")
        monkeypatch.setattr(experiments, "iter_fusion_windows", fail)
        out = tmp_path / "report.json"
        assert main(["train-fusion", f"--modalities={modalities}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-gas", "--approaches", "12", "--duration", "30",
         "--integration", "6,60"],
        ["train-gas", "--integration", "nan"],
        ["bench-latency", "--budget-us", "nan"],
        ["train-gas", "--approaches", "2", "--duration", "10.4",
         "--integration", "10.2"],
    ], ids=["gas_time_beyond_duration", "gas_time_nan", "latency_budget_nan",
            "gas_time_beyond_held_record"])
    def test_flags_checked_before_work(self, monkeypatch, tmp_path, capsys, argv):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")
        monkeypatch.setattr(experiments, "make_gas_dataset", fail)
        monkeypatch.setattr(link, "run_pipeline", fail)
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()


class TestReportMetadata:
    def test_report_embeds_seed_and_hash(self, tmp_path):
        out = tmp_path / "m.json"
        main(["bench-mtf", "--region", "1", "--spacings", "6", "--seed", "7",
              "--format", "json", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["seed"] == 7
        assert len(rep["config_hash"]) == 16
        assert rep["schema"] == 1
        assert rep["version"]

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOUCHLAB_OUT_DIR", str(tmp_path))
        code = main(["bench-mtf", "--region", "1", "--spacings", "6",
                     "--format", "json"])
        assert code == EXIT_OK
        assert (tmp_path / "bench-mtf-0.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    # The import loads no scipy.signal or scipy.ndimage; bench-mtf then
    # loads no scipy module at all.
    code = ("import sys, touchlab.cli; "
            "print([m for m in ('scipy.signal', 'scipy.ndimage') if m in sys.modules]); "
            "touchlab.cli.main(['bench-mtf', '--region', '1', '--spacings', '6']); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(touchlab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


def run_quiet(argv):
    """``main(argv)`` with its output captured; a SystemExit from argparse
    counts as its exit code.  Returns (exit code, stderr text)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


#: Wrong types, non-finite numbers, negatives and zero.
junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, -0.5, 0.0]))


def or_junk(valid):
    """A ``valid`` value three times in four, so that whole documents are
    often valid."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: valid if ok else junk)


def rate_values(default):
    return or_junk(st.floats(min_value=0.5, max_value=default))


events = st.fixed_dictionaries(
    {"t_start": or_junk(st.floats(0.0, 0.2)),
     "t_end": or_junk(st.floats(0.2, 0.5)),
     "kind": or_junk(st.sampled_from(synth.EVENT_KINDS)),
     "material": or_junk(st.sampled_from(sorted(synth.MATERIALS)))},
    optional={"fill_fraction": or_junk(st.floats(0.0, 1.0)),
              "temperature_c": or_junk(st.floats(-20.0, 80.0)),
              "finger_ids": or_junk(st.lists(or_junk(st.integers(0, 3)), max_size=2))})

scenario_docs = st.fixed_dictionaries(
    {"duration_s": or_junk(st.floats(0.01, 0.5))},
    optional={
        "seed": or_junk(st.integers(0, 2**32)),
        "fingers": or_junk(st.lists(or_junk(st.integers(0, 3)), max_size=2)),
        "rates": or_junk(st.fixed_dictionaries({}, optional={
            "visuotactile": rate_values(240.0),
            "surface_audio": rate_values(48_000.0),
            "surface_pressure": rate_values(1000.0),
            "inertial": rate_values(200.0),
            "gas": rate_values(1.0),
            "heat": rate_values(1.0)})),
        "events": or_junk(st.lists(or_junk(events), max_size=3)),
    })


class TestFuzzedInputs:
    """Flag values and scenario files end in an exit code, never in a
    traceback."""

    @settings(max_examples=60, deadline=None)
    @given(text=st.one_of(st.text(max_size=24), st.lists(st.floats(), max_size=3).map(
        lambda xs: ",".join(map(repr, xs)))))
    def test_mtf_spacings(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "mtf.csv")
            code, err = run_quiet(["bench-mtf", "--region", "1",
                                   f"--spacings={text}", "--out", out])
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert "Traceback" not in err

    @settings(max_examples=30, deadline=None)
    @given(doc=scenario_docs)
    # A 0.8 ms stir covers no pressure or inertial sample.
    @example(doc={"duration_s": 0.1, "events": [
        {"t_start": 0.0101, "t_end": 0.0109, "kind": "stir", "material": "wood"}]})
    def test_record_scenario(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            code, err = run_quiet(["record", path, "--out",
                                   os.path.join(tmp, "run.d36r")])
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert "Traceback" not in err
