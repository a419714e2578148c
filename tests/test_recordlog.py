import os
import struct
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchlab import cli, errors
from touchlab.core import (
    FORMATS,
    IMAGE_SIZE,
    ModalityKind,
    ModalitySample,
    RecordLog,
    StreamDescriptor,
    row_shape,
)
from touchlab.recordlog import (
    MAGIC,
    VERSION,
    log_from_bytes,
    log_to_bytes,
    read_log,
    write_log,
)


def _empty_log():
    log = RecordLog()
    for sid, kind in enumerate(ModalityKind):
        log.add_stream(StreamDescriptor.default(sid, kind))
    return log


def _payload_for(rng, desc):
    kind, shape = desc.kind, row_shape(desc.kind)
    if kind is ModalityKind.VISUOTACTILE:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if kind is ModalityKind.SURFACE_AUDIO:
        n = int(rng.integers(1, 64))
        return rng.integers(-32768, 32768, size=(n, *shape)).astype("<i2")
    return rng.normal(size=shape).astype("<f4")


def _random_log(seed, n_samples):
    rng = np.random.default_rng(seed)
    log = _empty_log()
    sids = list(log.descriptors)
    t = {sid: 0 for sid in sids}
    for _ in range(n_samples):
        sid = int(rng.choice(sids))
        t[sid] += int(rng.integers(1, 10_000_000))
        log.append(ModalitySample(sid, t[sid], _payload_for(rng, log.descriptors[sid])))
    return log


def _logs_equal(a, b):
    if a.descriptors != b.descriptors:
        return False
    if len(a.samples) != len(b.samples):
        return False
    for x, y in zip(a.samples, b.samples):
        if x.stream_id != y.stream_id or x.t_ns != y.t_ns:
            return False
        if x.payload.shape != y.payload.shape or not np.array_equal(x.payload, y.payload):
            return False
    return True


class TestRoundTrip:
    def test_empty_log(self, tmp_path):
        log = _empty_log()
        path = tmp_path / "empty.d36r"
        write_log(log, path)
        back = read_log(path)
        assert back.descriptors == log.descriptors
        assert back.samples == []

    def test_1000_mixed_samples_bit_exact(self, tmp_path):
        log = _random_log(seed=7, n_samples=1000)
        path = tmp_path / "mixed.d36r"
        write_log(log, path)
        data1 = path.read_bytes()
        back = read_log(path)
        assert _logs_equal(log, back)
        # Byte-compare oracle: re-serializing the parsed log reproduces the file.
        assert log_to_bytes(back) == data1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120))
    def test_round_trip_is_identity(self, seed, n):
        log = _random_log(seed, n)
        data = log_to_bytes(log)
        back = log_from_bytes(data)
        assert _logs_equal(log, back)
        assert log_to_bytes(back) == data


class TestCorruption:
    def test_bad_magic(self):
        data = bytearray(log_to_bytes(_random_log(1, 5)))
        assert data[:4] == MAGIC
        data[:4] = b"XXXX"
        with pytest.raises(errors.BadMagic):
            log_from_bytes(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(log_to_bytes(_random_log(1, 5)))
        data[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(errors.VersionMismatch):
            log_from_bytes(bytes(data))

    def test_truncated_chunk(self):
        data = log_to_bytes(_random_log(1, 5))
        with pytest.raises(errors.TruncatedChunk):
            log_from_bytes(data[:-3])

    def test_unsorted_samples_refused_at_write(self):
        log = _empty_log()
        sid = 3  # inertial
        log.append(ModalitySample(sid, 100, np.zeros(3, dtype="<f4")))
        log.append(ModalitySample(sid, 50, np.zeros(3, dtype="<f4")))
        with pytest.raises(errors.UnsortedSamples):
            log_to_bytes(log)

    def test_partial_item_payload(self):
        with pytest.raises(errors.TruncatedChunk):
            log_from_bytes(partial_item_log())


def partial_item_log() -> bytes:
    """A one-chunk inertial log whose chunk holds 11 bytes, not three
    whole float32 values."""
    log = RecordLog()
    log.add_stream(StreamDescriptor.default(3, ModalityKind.INERTIAL))
    log.append(ModalitySample(3, 0, np.zeros(3, dtype="<f4")))
    data = bytearray(log_to_bytes(log)[:-1])
    struct.pack_into("<I", data, len(data) - 11 - 4, 11)  # payload_len
    return bytes(data)


def _small_log() -> bytes:
    """Every modality kind: one rig-sized image, and three chunks of every
    other stream, audio in blocks of 1, 4 and 7 frames."""
    log = _empty_log()
    rng = np.random.default_rng(3)
    for k in range(3):
        for sid, desc in log.descriptors.items():
            shape = row_shape(desc.kind)
            if desc.kind is ModalityKind.SURFACE_AUDIO:
                payload = rng.integers(-99, 99, size=(1 + 3 * k, *shape)).astype("<i2")
            elif desc.kind is ModalityKind.VISUOTACTILE:
                if k:
                    continue
                payload = rng.integers(0, 256, size=shape, dtype=np.uint8)
            else:
                payload = rng.normal(size=shape).astype("<f4")
            log.append(ModalitySample(sid, 1000 * k + sid, payload))
    return log_to_bytes(log)


SMALL_LOG = _small_log()
# The header and the descriptor table: the frame is most of the file, so
# about half of all damage is drawn from here to reach the descriptor checks.
SMALL_LOG_HEAD = 8 + 18 * len(ModalityKind)


def _mutated(edits):
    data = bytearray(SMALL_LOG)
    for pos, value in edits:
        data[pos] = value
    return bytes(data)


offsets = st.one_of(st.integers(0, SMALL_LOG_HEAD - 1), st.integers(0, len(SMALL_LOG) - 1))
damaged_logs = st.one_of(
    offsets.map(lambda n: SMALL_LOG[:n]),
    st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1, max_size=4).map(_mutated),
)


def declared_log(kind, **fields) -> bytes:
    """A one-chunk ``kind`` log whose descriptor declares ``fields``
    (channels, sample_bits, width, height) in place of the kind's own; the
    chunk holds one row of the declared geometry."""
    size = IMAGE_SIZE if kind is ModalityKind.VISUOTACTILE else 0
    geometry = {"channels": FORMATS[kind].channels,
                "sample_bits": FORMATS[kind].dtype.itemsize * 8,
                "width": size, "height": size, **fields}
    items = geometry["channels"]
    if kind is ModalityKind.VISUOTACTILE:
        items *= geometry["width"] * geometry["height"]
    payload = bytes(items * geometry["sample_bits"] // 8)
    return (struct.pack("<4sHH", MAGIC, VERSION, 1)
            + struct.pack("<HBdHBHH", 0, kind.value, 100.0, *geometry.values())
            + struct.pack("<HQI", 0, 0, len(payload)) + payload)


class TestDescriptorGeometry:
    """A descriptor's channels, sample_bits, width and height are fixed by
    its kind; a log that declares other values is refused."""

    @pytest.mark.parametrize("kind", list(ModalityKind), ids=lambda k: k.name.lower())
    def test_rig_geometry_parses(self, kind):
        log = log_from_bytes(declared_log(kind))
        assert log.stream(0).payload.shape[1:] == row_shape(kind)

    def test_zero_channels_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            log_from_bytes(declared_log(ModalityKind.HEAT, channels=0))

    @pytest.mark.parametrize("kind, bits", [(ModalityKind.VISUOTACTILE, 32),
                                            (ModalityKind.SURFACE_AUDIO, 32),
                                            (ModalityKind.SURFACE_PRESSURE, 16)])
    def test_sample_bits_must_be_payload_width(self, kind, bits):
        with pytest.raises(errors.ShapeMismatch):
            log_from_bytes(declared_log(kind, sample_bits=bits))

    @pytest.mark.parametrize("kind, fields", [
        (ModalityKind.INERTIAL, {"channels": 7}),
        (ModalityKind.VISUOTACTILE, {"width": 5, "height": 9}),
        (ModalityKind.SURFACE_PRESSURE, {"width": 5, "height": 9}),
        (ModalityKind.VISUOTACTILE, {"sample_bits": 16}),
        (ModalityKind.HEAT, {"width": IMAGE_SIZE}),
        (ModalityKind.VISUOTACTILE, {"height": 9}),
    ], ids=["inertial_7_channels", "visuotactile_5x9", "pressure_5x9",
            "visuotactile_16_bit", "heat_width", "visuotactile_height"])
    def test_replay_exit_2(self, tmp_path, capsys, kind, fields):
        path = tmp_path / "declared.d36r"
        path.write_bytes(declared_log(kind, **fields))
        assert cli.main(["replay", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: stream 0: ")


class TestDamagedLogs:
    """A truncated or mutated log either parses, and then re-encodes, or
    raises a TouchlabError; ``touchlab replay`` exits 0 or 2."""

    @settings(max_examples=300, deadline=None)
    @given(data=damaged_logs)
    def test_parse_or_named_error(self, data):
        try:
            back = log_from_bytes(data)
        except errors.TouchlabError:
            return
        log_to_bytes(back)

    @settings(max_examples=100, deadline=None)
    @given(data=damaged_logs)
    def test_replay_exit_code(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "damaged.d36r")
            with open(path, "wb") as fh:
                fh.write(data)
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                code = cli.main(["replay", path, "--out", os.path.join(tmp, "again.d36r")])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)


class TestNoAliasing:
    def test_buffer_mutation_leaves_payloads(self):
        log = _random_log(seed=5, n_samples=200)
        buf = bytearray(log_to_bytes(log))
        back = log_from_bytes(buf)
        buf[:] = bytes(len(buf))
        buf.clear()  # a payload still viewing ``buf`` would make this raise
        assert _logs_equal(log, back)

    def test_payloads_read_only(self, tmp_path):
        path = tmp_path / "log.d36r"
        write_log(_random_log(seed=6, n_samples=100), path)
        back = read_log(path)
        for sid in back.descriptors:
            cols = back.stream(sid)
            assert not cols.payload.flags.writeable
            assert not cols.t_ns.flags.writeable
        sample = back.samples[0]
        with pytest.raises(ValueError):
            sample.payload[...] = 0
