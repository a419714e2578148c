import numpy as np
import pytest

from touchlab import errors
from touchlab.core import (
    ModalityKind,
    ModalitySample,
    RecordLog,
    StreamColumns,
    StreamDescriptor,
    WindowSample,
    row_shape,
    validate_descriptor,
)


class TestValidateDescriptor:
    def test_visuotactile_default_ok(self):
        desc = StreamDescriptor.default(0, ModalityKind.VISUOTACTILE)
        assert desc.rate_hz == 240.0
        assert row_shape(desc.kind) == (120, 120, 3)
        validate_descriptor(desc)

    def test_zero_rate_rejected(self):
        desc = StreamDescriptor(1, ModalityKind.SURFACE_AUDIO, 0.0)
        with pytest.raises(errors.ZeroRate):
            validate_descriptor(desc)

    def test_gas_default_ok(self):
        desc = StreamDescriptor(2, ModalityKind.GAS, 1.0)
        validate_descriptor(desc)

    def test_unknown_kind_rejected(self):
        desc = StreamDescriptor(4, "bogus", 1.0)
        with pytest.raises(errors.UnknownKind):
            validate_descriptor(desc)


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
        log.append(ModalitySample(0, 5, np.zeros(1, dtype="<f4")))
        with pytest.raises(errors.UnsortedSamples):
            log.validate_sorted()


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
