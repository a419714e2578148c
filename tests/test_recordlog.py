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
    MAX_RATE_HZ,
    ModalityKind,
    ModalitySample,
    RecordLog,
    StreamColumns,
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


ALL_KINDS = tuple(StreamDescriptor.default(sid, kind)
                  for sid, kind in enumerate(ModalityKind))


def _empty_log():
    return RecordLog.from_columns(ALL_KINDS, {})


def _payload_for(rng, desc):
    kind, shape = desc.kind, row_shape(desc.kind)
    if kind is ModalityKind.VISUOTACTILE:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    if kind is ModalityKind.SURFACE_AUDIO:
        n = int(rng.integers(1, 64))
        return rng.integers(-32768, 32768, size=(n, *shape)).astype("<i2")
    return rng.normal(size=shape).astype("<f4")


def _columns_of(kind, t, rows) -> StreamColumns:
    """One ``kind`` stream's columns from its chunks' timestamps and
    payloads (an audio payload is a block of frames)."""
    t_ns = np.array(t, dtype=np.uint64)
    empty = np.empty((0, *row_shape(kind)), dtype=FORMATS[kind].dtype)
    if kind is ModalityKind.SURFACE_AUDIO:
        return StreamColumns(t_ns, np.concatenate([empty, *rows]),
                             np.cumsum([0] + [len(r) for r in rows]))
    return StreamColumns(t_ns, np.stack(rows) if rows else empty)


def _log_of(descs, t, rows, order=None) -> RecordLog:
    """A log of ``descs`` from each stream's chunk timestamps and payloads
    (``t`` and ``rows`` map stream id to lists); ``order`` is the chunk
    order, by default time order."""
    return RecordLog.from_columns(
        descs, {d.stream_id: _columns_of(d.kind, t[d.stream_id], rows[d.stream_id])
                for d in descs}, None if order is None else np.array(order, dtype=np.uint16))


def _random_log(seed, n_samples):
    """``n_samples`` chunks on every kind's stream, each on a stream drawn
    at random, with random payloads and rising timestamps per stream."""
    rng = np.random.default_rng(seed)
    sids = [d.stream_id for d in ALL_KINDS]
    t = {sid: [] for sid in sids}
    rows = {sid: [] for sid in sids}
    order = []
    for _ in range(n_samples):
        sid = int(rng.choice(sids))
        t[sid].append((t[sid][-1] if t[sid] else 0) + int(rng.integers(1, 10_000_000)))
        rows[sid].append(_payload_for(rng, ALL_KINDS[sid]))
        order.append(sid)
    return _log_of(ALL_KINDS, t, rows, order)


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

    def test_unsorted_samples_refused_at_write(self, tmp_path):
        """A backwards sample is refused at ``append``, before any file is
        written, and the log still writes the samples it holds."""
        log = _empty_log()
        sid = 3  # inertial
        log.append(ModalitySample(sid, 100, np.zeros(3, dtype="<f4")))
        with pytest.raises(errors.UnsortedSamples):
            log.append(ModalitySample(sid, 50, np.zeros(3, dtype="<f4")))
        path = tmp_path / "unsorted.d36r"
        write_log(log, path)
        assert read_log(path).stream(sid).t_ns.tolist() == [100]

    def test_partial_item_payload(self):
        with pytest.raises(errors.TruncatedChunk):
            log_from_bytes(partial_item_log())


def partial_item_log() -> bytes:
    """A one-chunk inertial log whose chunk holds 11 bytes, not three
    whole float32 values."""
    log = RecordLog.from_columns([ALL_KINDS[3]], {3: _columns_of(
        ModalityKind.INERTIAL, [0], [np.zeros(3, dtype="<f4")])})
    data = bytearray(log_to_bytes(log)[:-1])
    struct.pack_into("<I", data, len(data) - 11 - 4, 11)  # payload_len
    return bytes(data)


def _small_log() -> bytes:
    """Every modality kind: one rig-sized image, and three chunks of every
    other stream, audio in blocks of 1, 4 and 7 frames."""
    rng = np.random.default_rng(3)
    t = {d.stream_id: [] for d in ALL_KINDS}
    rows = {d.stream_id: [] for d in ALL_KINDS}
    for k in range(3):
        for desc in ALL_KINDS:
            shape = row_shape(desc.kind)
            if desc.kind is ModalityKind.SURFACE_AUDIO:
                payload = rng.integers(-99, 99, size=(1 + 3 * k, *shape)).astype("<i2")
            elif desc.kind is ModalityKind.VISUOTACTILE:
                if k:
                    continue
                payload = rng.integers(0, 256, size=shape, dtype=np.uint8)
            else:
                payload = rng.normal(size=shape).astype("<f4")
            t[desc.stream_id].append(1000 * k + desc.stream_id)
            rows[desc.stream_id].append(payload)
    return log_to_bytes(_log_of(ALL_KINDS, t, rows))


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


BOGUS_KINDS = ("bogus", 99, None)
BAD_RATES = (0.0, -1.0, float("nan"), float("inf"), 1e300)


@st.composite
def stream_specs(draw):
    """One to three (stream id, kind, rate, timestamps) tuples, each field
    valid or not: bogus kinds, bad rates, ids up to 0x10000 and timestamps
    that may go backwards."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        sid = draw(st.one_of(st.integers(0, 2), st.integers(0, 0x10000)))
        kind = draw(st.sampled_from((*ModalityKind, *BOGUS_KINDS)))
        rate = draw(st.one_of(st.sampled_from(BAD_RATES), st.floats(1e-3, MAX_RATE_HZ)))
        t = draw(st.lists(st.integers(0, 2**64 - 1), max_size=4))
        specs.append((sid, kind, rate, sorted(t) if draw(st.booleans()) else t))
    return specs


def _valid(specs) -> bool:
    return len({sid for sid, *_ in specs}) == len(specs) and all(
        isinstance(kind, ModalityKind) and 0 < rate <= MAX_RATE_HZ
        and sid <= 0xFFFF and t == sorted(t) for sid, kind, rate, t in specs)


def _by_columns(specs, rng) -> RecordLog:
    descs, columns = [], {}
    for sid, kind, rate, t in specs:
        desc = StreamDescriptor(sid, kind, rate)
        descs.append(desc)
        columns[sid] = _columns_of(kind, t, [_payload_for(rng, desc) for _ in t])
    return RecordLog.from_columns(descs, columns)


def _by_append(specs, rng) -> RecordLog:
    log = RecordLog()
    for sid, kind, rate, _ in specs:
        log.add_stream(StreamDescriptor(sid, kind, rate))
    for sid, _, _, t in specs:
        for t_ns in t:
            log.append(ModalitySample(sid, t_ns, _payload_for(rng, log.descriptors[sid])))
    return log


class TestValidByConstruction:
    """A log built from any fields either raises a TouchlabError when it is
    built, exactly when some field breaks an invariant, or writes bytes
    that read back and re-encode to the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(specs=stream_specs(), build=st.sampled_from([_by_columns, _by_append]),
           seed=st.integers(0, 2**16))
    def test_refused_or_round_trips(self, specs, build, seed):
        try:
            data = log_to_bytes(build(specs, np.random.default_rng(seed)))
        except errors.TouchlabError:
            assert not _valid(specs)
            return
        assert _valid(specs)
        assert log_to_bytes(log_from_bytes(data)) == data


@st.composite
def append_runs(draw):
    """One to three streams of any kinds, and a run of appends, each valid
    or not: stream id 3 has no descriptor, a payload may have a wrong row
    shape or dtype, an audio block may hold no frames, and timestamps may
    go backwards."""
    kinds = draw(st.lists(st.sampled_from(list(ModalityKind)), min_size=1, max_size=3))
    steps = draw(st.lists(st.tuples(
        st.integers(0, 3), st.integers(0, 40), st.integers(0, 3),
        st.sampled_from(["ok", "ok", "ok", "rows", "dtype"])), max_size=25))
    return kinds, steps


def _append_payload(kind, frames, flaw, k):
    shape = row_shape(kind)
    if kind is ModalityKind.SURFACE_AUDIO:
        shape = (frames, *shape)
    if flaw == "rows":
        shape = (*shape[:-1], shape[-1] + 1)
    dtype = np.dtype("<f8") if flaw == "dtype" else FORMATS[kind].dtype
    return np.full(shape, k, dtype=dtype)


class TestWriteThroughAppend:
    """``append`` writes each accepted sample through to its stream's
    columns and the chunk order; a refused one raises and changes nothing."""

    @settings(max_examples=100, deadline=None)
    @given(run=append_runs())
    def test_appends_equal_columns_of_accepted(self, run):
        kinds, steps = run
        descs = [StreamDescriptor.default(sid, kind) for sid, kind in enumerate(kinds)]
        log = RecordLog.from_columns(descs, {})
        t = {d.stream_id: [] for d in descs}
        rows = {d.stream_id: [] for d in descs}
        order = []
        for k, (sid, t_ns, frames, flaw) in enumerate(steps):
            kind = kinds[sid] if sid < len(kinds) else ModalityKind.HEAT
            payload = _append_payload(kind, frames, flaw, k)
            if sid >= len(kinds):
                refused = errors.UnknownKind
            elif flaw != "ok" or (kind is ModalityKind.SURFACE_AUDIO and not frames):
                refused = errors.ShapeMismatch
            elif t[sid] and t_ns < t[sid][-1]:
                refused = errors.UnsortedSamples
            else:
                refused = None
            before = log_to_bytes(log)
            if refused:
                with pytest.raises(refused):
                    log.append(ModalitySample(sid, t_ns, payload))
                assert log_to_bytes(log) == before
                continue
            log.append(ModalitySample(sid, t_ns, payload))
            t[sid].append(t_ns)
            rows[sid].append(payload)
            order.append(sid)
        assert log.chunk_streams.tolist() == order
        assert log_to_bytes(log) == log_to_bytes(_log_of(descs, t, rows, order))


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
