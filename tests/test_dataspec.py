import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from relpick import (
    ConfidenceVector,
    DataError,
    EmbeddingMatrix,
    ConfigError,
    FormatError,
    LabelVector,
    NoiseFlagVector,
    ProbabilityMatrix,
    SelectionConfig,
    confidence_from_probs,
    ingest_embeddings,
)
from relpick.dataspec import (
    load_labels,
    load_noise_flags,
    read_matrix,
    read_vector,
    write_matrix_binary,
    write_vector_binary,
    MATRIX_MAGIC,
)


class TestIngest:
    def test_csv_identity_rows(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,0\n0,1\n")
        E = ingest_embeddings(p)
        assert E.m == 2 and E.d == 2
        np.testing.assert_array_equal(E.data, np.eye(2, dtype=np.float32))

    def test_average_groups_of_two(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,0\n0,1\n")
        E = ingest_embeddings(p, average_groups=2)
        assert E.m == 1
        r = math.sqrt(2) / 2
        np.testing.assert_allclose(E.data[0], [r, r], rtol=1e-6)
        assert np.all(np.abs(np.linalg.norm(E.data.astype(np.float64), axis=1) - 1.0) <= 1e-6)

    def test_average_groups_identity_when_k1(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4, 3)).astype(np.float32)
        p = tmp_path / "e.bin"
        write_matrix_binary(p, rows)
        E = ingest_embeddings(p, average_groups=1)
        expected = rows / np.linalg.norm(rows.astype(np.float64), axis=1, keepdims=True)
        np.testing.assert_allclose(E.data, expected, atol=1e-6)

    def test_binary_shape_mismatch(self, tmp_path):
        p = tmp_path / "bad.bin"
        payload = np.arange(10, dtype="<f4").tobytes()
        p.write_bytes(MATRIX_MAGIC + (3).to_bytes(8, "little") + (4).to_bytes(8, "little") + payload)
        with pytest.raises(FormatError):
            ingest_embeddings(p)

    def test_indivisible_group_size(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,0\n0,1\n1,1\n")
        with pytest.raises(DataError):
            ingest_embeddings(p, average_groups=2)

    def test_zero_row_after_averaging(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,0\n-1,0\n")
        with pytest.raises(DataError):
            ingest_embeddings(p, average_groups=2)


class TestBinaryRoundTrip:
    def test_matrix_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((13, 5)).astype(np.float32)
        p = tmp_path / "m.bin"
        write_matrix_binary(p, data)
        back = read_matrix(p)
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), data.view(np.uint32))

    def test_writer_makes_no_payload_copy(self, tmp_path):
        data = np.random.default_rng(9).standard_normal((2000, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            write_matrix_binary(tmp_path / "m.bin", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes  # the 512 KB payload
        assert read_matrix(tmp_path / "m.bin").tobytes() == data.tobytes()

    def test_confidence_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        v = rng.uniform(0, 1, 17).astype(np.float32)
        p = tmp_path / "c.bin"
        write_vector_binary(p, v)
        back = read_vector(p).astype(np.float32)
        assert np.array_equal(back.view(np.uint32), v.view(np.uint32))


class TestReaders:
    def test_undecodable_bytes_name_their_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"0.5\n\xff\xfe\n")
        with pytest.raises(FormatError, match=r"c\.txt:2:"):
            read_vector(p)

    def test_crlf_blank_lines_and_padded_values(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b" 0.25\r\n\r\n\t0.5 \r\n  \r\n1e-3\r\n")
        assert read_vector(p).tolist() == [0.25, 0.5, 1e-3]
        p.write_bytes(b" 1, 2\r\n\r\n3 ,4\t\r\n")
        assert read_matrix(p).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        p.write_bytes(b" 0.25\r\n\r\n0.5,1\r\n")
        with pytest.raises(FormatError, match=r"c\.txt:3: expected 1 columns, got 2"):
            read_vector(p)
        p.write_bytes(b" 0.25\r\n\r\nx\r\n")
        with pytest.raises(FormatError, match=r"c\.txt:3: could not convert"):
            read_vector(p)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        bom = "\ufeff".encode()
        for name, text, read in (("c.txt", b"0.5\n0.25\n", read_vector),
                                 ("e.csv", b"1,0.5\n0,2\n", read_matrix)):
            plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
            plain.write_bytes(text)
            marked.write_bytes(bom + text)
            assert read(marked).tobytes() == read(plain).tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    def test_noise_flags_load_as_bools(self, tmp_path, binary):
        p = tmp_path / "f"
        if binary:
            write_vector_binary(p, np.array([1.0, 0.0, 1.0]))
        else:
            p.write_text("1\n0\n1.0\n")
        flags = load_noise_flags(p)
        assert flags.values.dtype == bool and flags.values.tolist() == [True, False, True]

    @pytest.mark.parametrize("bad", ["2", "0.5", "nan"])
    def test_noise_flags_must_be_0_or_1(self, tmp_path, bad):
        p = tmp_path / "f.txt"
        p.write_text(f"0\n{bad}\n1\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: noise flags must be 0 or 1$"):
            load_noise_flags(p)

    def test_vector_needs_one_column(self, tmp_path):
        p = tmp_path / "m.bin"
        write_matrix_binary(p, np.eye(2, dtype=np.float32))
        with pytest.raises(FormatError, match="single-column"):
            read_vector(p)


class TestConfidenceFromProbs:
    def test_maxprob(self):
        P = ProbabilityMatrix(np.array([[0.7, 0.2, 0.1]]))
        assert confidence_from_probs(P, "maxprob").values[0] == pytest.approx(0.7)

    def test_diffprob(self):
        P = ProbabilityMatrix(np.array([[0.7, 0.2, 0.1]]))
        assert confidence_from_probs(P, "diffprob").values[0] == pytest.approx(0.5)

    def test_diffprob_uniform_row_is_zero(self):
        P = ProbabilityMatrix(np.full((1, 3), 1.0 / 3.0))
        assert confidence_from_probs(P, "diffprob").values[0] == pytest.approx(0.0)

    def test_diffprob_needs_two_classes(self):
        P = ProbabilityMatrix(np.ones((3, 1)))
        with pytest.raises(ConfigError):
            confidence_from_probs(P, "diffprob")

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            elements=st.floats(0.01, 10.0),
        )
    )
    def test_maxprob_dominates_diffprob(self, logits):
        P = ProbabilityMatrix(logits / logits.sum(axis=1, keepdims=True))
        hi = confidence_from_probs(P, "maxprob").values
        lo = confidence_from_probs(P, "diffprob").values
        assert np.all(hi >= lo - 1e-12)


class TestValidation:
    def test_confidence_small_overshoot_clamped(self):
        C = ConfidenceVector([1.0 + 5e-7, 0.5])
        assert C.values[0] == 1.0

    def test_confidence_large_overshoot_rejected(self):
        with pytest.raises(DataError):
            ConfidenceVector([1.1, 0.5])

    def test_confidence_nan_rejected(self):
        with pytest.raises(DataError):
            ConfidenceVector([float("nan")])

    def test_probability_rows_must_sum_to_one(self):
        with pytest.raises(DataError):
            ProbabilityMatrix(np.array([[0.6, 0.3]]))

    def test_embedding_nonfinite_rejected(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.array([[np.inf, 0.0]]))

    def test_label_range(self):
        with pytest.raises(DataError, match="label ids must be non-negative, got -1"):
            LabelVector(np.array([0, -1]))

    def test_labels_refuse_lossy_casts(self):
        # a cast that changes a value (0.5 -> 0, 1e20 or nan -> -2^63) is
        # refused; whole floats load
        labels = LabelVector(np.array([1.0, 0.0]))
        assert labels.values.dtype == np.int64 and labels.values.tolist() == [1, 0]
        for bad in ([0.5, 1.7], [1e20], [np.nan], [np.inf]):
            with pytest.raises(DataError, match="label vector must be integers"):
                LabelVector(np.array(bad))

    def test_noise_flags_refuse_lossy_casts(self):
        # a cast that changes a value (0.5 or 2.0 -> True) is refused;
        # 0.0 and 1.0 load
        flags = NoiseFlagVector(np.array([1.0, 0.0]))
        assert flags.values.dtype == bool and flags.values.tolist() == [True, False]
        for bad in ([0.5, 2.0, 0.0], [-1], [np.nan]):
            with pytest.raises(DataError, match="noise-flag vector must be 0 or 1"):
                NoiseFlagVector(np.array(bad))

    def test_empty_label_file_refused(self, tmp_path):
        p = tmp_path / "y.bin"
        write_matrix_binary(p, np.empty((0, 1), dtype=np.float32))
        with pytest.raises(DataError, match="must be 1-D and non-empty"):
            load_labels(p)

    def test_config_budget_must_be_an_integer(self):
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(ConfigError, match="budget must be an integer"):
                SelectionConfig(budget=bad)
        cfg = SelectionConfig(budget=np.int64(3))
        assert type(cfg.budget) is int and json.loads(json.dumps(cfg.to_dict()))["budget"] == 3

    def test_config_tau_range(self):
        with pytest.raises(ConfigError):
            SelectionConfig(budget=1, tau=0.0)
        with pytest.raises(ConfigError):
            SelectionConfig(budget=1, tau=1.5)

    def test_config_knots_only_with_piecewise(self):
        with pytest.raises(ConfigError, match="utility_knots apply only to the piecewise"):
            SelectionConfig(budget=1, utility="tanh", utility_knots=((0, 0), (1, 1)))
        cfg = SelectionConfig(budget=1, utility="piecewise", utility_knots=((0, 0), (1, 1)))
        assert cfg.to_dict()["utility_knots"] == [[0, 0], [1, 1]]

    def test_config_bad_rule(self):
        with pytest.raises(ConfigError):
            SelectionConfig(budget=1, rule="sgd")

    @pytest.mark.parametrize("view", [False, True])
    @pytest.mark.parametrize("kind", ["embeddings", "labels", "flags"])
    def test_caller_array_stays_writable_and_unshared(self, kind, view):
        # an input that needs no conversion is copied, not frozen in place
        mine, make = {
            "embeddings": (np.ones((2, 3), dtype=np.float32), lambda a: EmbeddingMatrix(a).data),
            "labels": (np.array([1, 0], dtype=np.int64), lambda a: LabelVector(a).values),
            "flags": (np.array([True, False]), lambda a: NoiseFlagVector(a).values),
        }[kind]
        given = mine[:] if view else mine
        kept = make(given)
        assert given.flags.writeable and not kept.flags.writeable
        before = kept.copy()
        mine[0] = 0
        assert not np.array_equal(mine, before), "precondition: the write changes the array"
        np.testing.assert_array_equal(kept, before)

    def test_read_only_input_is_shared(self):
        rows = np.ones((2, 3), dtype=np.float32)
        rows.setflags(write=False)
        assert EmbeddingMatrix(rows).data is rows

    def test_arrays_are_read_only(self):
        C = ConfidenceVector([0.5])
        with pytest.raises(ValueError):
            C.values[0] = 0.1
