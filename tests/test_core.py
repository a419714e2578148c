import numpy as np
import pytest

from touchlab import errors
from touchlab.core import (
    MAX_RATE_HZ,
    ModalityKind,
    ModalitySample,
    RecordLog,
    StreamColumns,
    StreamDescriptor,
    WindowSample,
    row_shape,
)
from touchlab.recordlog import log_to_bytes


class TestValidateDescriptor:
    """The descriptor checks itself when it is made."""

    def test_visuotactile_default_ok(self):
        desc = StreamDescriptor.default(0, ModalityKind.VISUOTACTILE)
        assert desc.rate_hz == 240.0
        assert row_shape(desc.kind) == (120, 120, 3)

    def test_zero_rate_rejected(self):
        with pytest.raises(errors.ZeroRate):
            StreamDescriptor(1, ModalityKind.SURFACE_AUDIO, 0.0)

    def test_gas_default_ok(self):
        assert StreamDescriptor(2, ModalityKind.GAS, 1.0) == \
            StreamDescriptor.default(2, ModalityKind.GAS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(errors.UnknownKind):
            StreamDescriptor(4, "bogus", 1.0)
        with pytest.raises(errors.UnknownKind):
            StreamDescriptor.default(4, "bogus")

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf"), 1e300,
                                      MAX_RATE_HZ * 1.5])
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(errors.ZeroRate):
            StreamDescriptor(1, ModalityKind.SURFACE_AUDIO, rate)

    def test_max_rate_accepted(self):
        assert StreamDescriptor(1, ModalityKind.SURFACE_AUDIO, MAX_RATE_HZ).rate_hz == 1e9

    @pytest.mark.parametrize("stream_id", [-1, 0x10000])
    def test_stream_id_outside_u16_rejected(self, stream_id):
        with pytest.raises(errors.UnknownKind):
            StreamDescriptor(stream_id, ModalityKind.HEAT, 1.0)


class TestRecordLogModel:
    def test_payload_shape_enforced(self):
        log = RecordLog()
        log.add_stream(StreamDescriptor.default(0, ModalityKind.INERTIAL))
        with pytest.raises(errors.ShapeMismatch):
            log.append(ModalitySample(0, 0, np.zeros(4, dtype="<f4")))
        log.append(ModalitySample(0, 0, np.zeros(3, dtype="<f4")))
        assert len(log.samples) == 1

    def test_duplicate_stream_rejected(self):
        log = RecordLog()
        log.add_stream(StreamDescriptor.default(0, ModalityKind.HEAT))
        with pytest.raises(errors.DuplicateStream):
            log.add_stream(StreamDescriptor.default(0, ModalityKind.GAS))

    def test_unknown_stream_rejected(self):
        log = RecordLog()
        with pytest.raises(errors.UnknownKind):
            log.append(ModalitySample(7, 0, np.zeros(3, dtype="<f4")))

    @pytest.mark.parametrize("t_ns", [-1, 2**64])
    def test_timestamp_out_of_range_rejected(self, t_ns):
        with pytest.raises(errors.ConfigError):
            ModalitySample(0, t_ns, np.zeros(1, dtype="<f4"))

    def test_unsorted_per_stream_detected(self):
        log = RecordLog()
        log.add_stream(StreamDescriptor.default(0, ModalityKind.HEAT))
        log.append(ModalitySample(0, 10, np.zeros(1, dtype="<f4")))
        with pytest.raises(errors.UnsortedSamples):
            log.append(ModalitySample(0, 5, np.zeros(1, dtype="<f4")))
        assert log.stream(0).t_ns.tolist() == [10]

    def test_refused_append_leaves_the_log_as_it_was(self):
        log = RecordLog()
        for sid in (0, 1):
            log.add_stream(StreamDescriptor.default(sid, ModalityKind.HEAT))
        log.add_stream(StreamDescriptor.default(2, ModalityKind.SURFACE_AUDIO))
        log.append(ModalitySample(0, 10, np.zeros(1, dtype="<f4")))
        log.append(ModalitySample(2, 20, np.zeros((3, 4), dtype="<i2")))
        log.append(ModalitySample(1, 30, np.zeros(1, dtype="<f4")))
        before = log_to_bytes(log)
        for sample, refused in (
                (ModalitySample(1, 5, np.zeros(1, dtype="<f4")), errors.UnsortedSamples),
                (ModalitySample(2, 5, np.zeros((1, 4), dtype="<i2")), errors.UnsortedSamples),
                (ModalitySample(0, 40, np.zeros(2, dtype="<f4")), errors.ShapeMismatch),
                (ModalitySample(2, 40, np.zeros((0, 4), dtype="<i2")), errors.ShapeMismatch),
                (ModalitySample(7, 40, np.zeros(1, dtype="<f4")), errors.UnknownKind)):
            with pytest.raises(refused):
                log.append(sample)
            assert log_to_bytes(log) == before
            assert log.chunk_streams.tolist() == [0, 2, 1]

    def test_descriptors_are_read_only(self):
        log = RecordLog()
        log.add_stream(StreamDescriptor.default(0, ModalityKind.HEAT))
        with pytest.raises(TypeError):
            log.descriptors[1] = StreamDescriptor.default(1, ModalityKind.GAS)
        assert list(log.descriptors) == [0]


class TestFromColumns:
    DESCS = (StreamDescriptor.default(2, ModalityKind.SURFACE_PRESSURE),
             StreamDescriptor.default(1, ModalityKind.SURFACE_AUDIO))

    def _columns(self):
        pressure = StreamColumns(np.array([0, 5, 5], dtype=np.uint64),
                                 np.arange(12, dtype="<f4").reshape(3, 4))
        audio = StreamColumns(np.array([5, 9], dtype=np.uint64),
                              np.zeros((7, 4), dtype="<i2"), np.array([0, 4, 7]))
        return {2: pressure, 1: audio}

    def test_default_order_is_time_then_stream(self):
        log = RecordLog.from_columns(self.DESCS, self._columns())
        assert log.chunk_streams.tolist() == [2, 1, 2, 2, 1]
        assert [s.payload.shape for s in log.samples] == [(4,), (4, 4), (4,), (4,), (3, 4)]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            RecordLog.from_columns(self.DESCS, self._columns(),
                                   chunk_streams=np.array([2, 2, 2, 1], dtype=np.uint16))
        cols = self._columns()
        cols[1] = StreamColumns(cols[1].t_ns, cols[1].payload, np.array([0, 4, 6]))
        with pytest.raises(errors.ShapeMismatch):
            RecordLog.from_columns(self.DESCS, cols)

    @pytest.mark.parametrize("t_ns", [[5, 4], [0, 9, 3]])
    def test_backwards_timestamp_rejected(self, t_ns):
        with pytest.raises(errors.UnsortedSamples):
            StreamColumns(np.array(t_ns, dtype=np.uint64),
                          np.zeros((len(t_ns), 4), dtype="<f4"))

    @pytest.mark.parametrize("t_ns", [np.zeros(2, dtype=np.int64),
                                      np.zeros((2, 1), dtype=np.uint64)])
    def test_timestamps_not_one_uint64_axis_rejected(self, t_ns):
        with pytest.raises(errors.ShapeMismatch):
            StreamColumns(t_ns, np.zeros((2, 4), dtype="<f4"))

    def test_columns_without_descriptor_rejected(self):
        with pytest.raises(errors.UnknownKind):
            RecordLog.from_columns(self.DESCS[:1], self._columns())


def _window_kwargs(**over):
    kw = dict(
        visuotactile=np.zeros((10, 120, 120, 3), dtype="u1"),
        inertial=np.zeros((10, 3), dtype="<f4"),
        pressure=np.zeros((10, 4), dtype="<f4"),
        audio=np.zeros((40, 64, 1), dtype="<f4"),
        action_label="tap",
        material_label="wood",
        finger_id=0,
    )
    kw.update(over)
    return kw


class TestWindowSample:
    def test_valid_window(self):
        w = WindowSample(**_window_kwargs())
        assert w.finger_id == 0 and w.window_start_ns == 0

    @pytest.mark.parametrize("field,shape,dtype", [
        ("visuotactile", (9, 120, 120, 3), "u1"),
        ("inertial", (10, 4), "<f4"),
        ("pressure", (10, 3), "<f4"),
        ("audio", (64, 64, 1), "<f4"),
    ])
    def test_bad_shapes_rejected(self, field, shape, dtype):
        with pytest.raises(errors.ShapeMismatch):
            WindowSample(**_window_kwargs(**{field: np.zeros(shape, dtype=dtype)}))

    def test_bad_labels_rejected(self):
        with pytest.raises(errors.LabelOutOfRange):
            WindowSample(**_window_kwargs(action_label="poke"))
        with pytest.raises(errors.LabelOutOfRange):
            WindowSample(**_window_kwargs(material_label="metal"))
        with pytest.raises(errors.LabelOutOfRange):
            WindowSample(**_window_kwargs(finger_id=4))
