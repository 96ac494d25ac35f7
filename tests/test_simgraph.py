import math
import struct
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from relpick import (
    ConfidenceVector,
    ConfigError,
    DataError,
    EmbeddingMatrix,
    SelectionConfig,
    Utility,
    build_graph,
    degree_stats,
    objective,
    select,
    simgraph,
)
from relpick.errors import FormatError
from relpick.oracle import naive_objective, random_instance
from relpick.pruner import select, select_streaming
from relpick.simgraph import (
    NeighborGraph,
    edge_floor,
    edge_threshold,
    load_graph,
    save_graph,
    unit_rows,
)

from conftest import band_pair, boundary_pair, random_unit_rows, rescaled_duplicates


def ulp_steps(x, k):
    """The float64 values from k ulp below x to k ulp above it."""
    down, up = [x], [x]
    for _ in range(k):
        down.append(float(np.nextafter(down[-1], -np.inf)))
        up.append(float(np.nextafter(up[-1], np.inf)))
    return down[::-1] + up[1:]


def edge_set(G):
    out = set()
    for i in range(G.m):
        js, ws = G.neighbors(i)
        for j, w in zip(js, ws):
            out.add((i, int(j), float(w)))
    return out


class TestBuildGraph:
    def test_identical_rows(self):
        E = EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        G = build_graph(E, 0.95)
        assert edge_set(G) == {(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)}

    def test_orthogonal_rows_self_loops_only(self):
        E = EmbeddingMatrix(np.eye(2))
        G = build_graph(E, 0.5)
        assert edge_set(G) == {(0, 0, 1.0), (1, 1, 1.0)}

    def test_sub_threshold_pair_excluded(self):
        theta = math.acos(0.9)
        E = EmbeddingMatrix(np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]]))
        G = build_graph(E, 0.95)
        assert G.nnz == 2  # self-loops only

    def test_rows_need_not_be_unit(self):
        # cosine is scale invariant
        E = EmbeddingMatrix(np.array([[5.0, 0.0], [0.3, 0.0]]))
        G = build_graph(E, 0.99)
        assert (0, 1, 1.0) in edge_set(G)

    def test_zero_row_names_offender(self):
        E = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="row 1"):
            build_graph(E, 0.5)

    def test_tau_out_of_range(self):
        E = EmbeddingMatrix(np.eye(2))
        with pytest.raises(ConfigError):
            build_graph(E, 0.0)

    def test_brute_force_match(self):
        """The graph must equal an independent O(m^2) pairwise scan,
        bit-for-bit on float32 weights."""
        rng = np.random.default_rng(11)
        instances = [(random_unit_rows(rng, 40, 8), 0.2), (boundary_pair(0.9), 0.9),
                     (random_instance(5, m=40, d=4, c=3, cluster_spread=0.05)[0], 0.975)]
        for E, tau in instances:
            G = build_graph(E, tau)
            U = unit_rows(E)
            expected = set()
            for i in range(E.m):
                for j in range(E.m):
                    w = np.float32(min(1.0, max(-1.0, float(np.dot(U[i], U[j])))))
                    if i == j:
                        w = np.float32(1.0)
                    if float(w) >= tau:  # in float64: np.float32(0.9) >= 0.9 is True
                        expected.add((i, j, float(w)))
            assert edge_set(G) == expected
            if tau == 0.975:
                assert len(expected) > 2 * E.m, "precondition: cross edges at tau 0.975"

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(12)
        E = random_unit_rows(rng, 30, 6)
        lo = {(i, j) for i, j, _ in edge_set(build_graph(E, 0.3))}
        hi = {(i, j) for i, j, _ in edge_set(build_graph(E, 0.6))}
        assert hi <= lo

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        E = random_unit_rows(rng, 25, 4)
        a, b = build_graph(E, 0.4), build_graph(E, 0.4)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("tau", [0.9, 0.975, 0.3, 1.0, 0.1 + 0.2])
    def test_edge_threshold_is_smallest_float32_at_or_above_tau(self, tau):
        t32 = edge_threshold(tau)
        assert t32.dtype == np.float32
        assert float(t32) >= tau
        assert float(np.nextafter(t32, np.float32(-np.inf))) < tau

    @pytest.mark.parametrize("tau", [0.9, 0.975, 0.3, 1.0, 0.1 + 0.2])
    def test_edge_floor_screens_exactly_the_float32_rule(self, tau):
        # float32(x) >= t32 <=> x >= floor, on float64 values within a few
        # ulp of the floor and of the float32 midpoint below t32 (0.9's t32
        # has an odd mantissa, so there the midpoint rounds down)
        t32, floor = edge_threshold(tau), edge_floor(tau)
        mid = (float(np.nextafter(t32, np.float32(-np.inf))) + float(t32)) / 2
        xs = [x for centre in (floor, mid) for x in ulp_steps(centre, 4)]
        assert [bool(np.float32(x) >= t32) for x in xs] == [x >= floor for x in xs]
        assert np.float32(floor) >= t32 > np.float32(np.nextafter(floor, -np.inf))

    def test_float32_boundary_pair_has_no_cross_edge(self):
        # cos < tau, but cos rounds to float32(tau): below tau, so no edge
        G = build_graph(boundary_pair(0.9), 0.9)
        assert edge_set(G) == {(0, 0, 1.0), (1, 1, 1.0)}

    def test_weights_within_bounds(self):
        rng = np.random.default_rng(14)
        E = random_unit_rows(rng, 50, 8)
        G = build_graph(E, 0.25)
        w = G.weights.astype(np.float64)
        assert w.min() >= 0.25 and w.max() <= 1.0  # the rule: float64(w) >= tau
        G.validate()


class TestDegreeStats:
    def test_identical_pair(self):
        G = build_graph(EmbeddingMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])), 0.95)
        s = degree_stats(G)
        assert (s.min, s.mean, s.max) == (1, 1.0, 1)

    def test_orthogonal_pair(self):
        G = build_graph(EmbeddingMatrix(np.eye(2)), 0.5)
        s = degree_stats(G)
        assert (s.min, s.mean, s.max) == (0, 0.0, 0)

    def test_three_identical_rows(self):
        G = build_graph(EmbeddingMatrix(np.ones((3, 2))), 0.95)
        s = degree_stats(G)
        assert (s.min, s.mean, s.max) == (2, 2.0, 2)


class TestGraphCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        E = random_unit_rows(rng, 30, 5)
        G = build_graph(E, 0.3)
        p = tmp_path / "g.bin"
        save_graph(p, G)
        back = load_graph(p)
        assert back.m == G.m and back.tau == G.tau
        assert np.array_equal(back.indptr, G.indptr)
        assert np.array_equal(back.indices, G.indices)
        assert np.array_equal(back.weights.view(np.uint32), G.weights.view(np.uint32))

    def test_boundary_pair_round_trip(self, tmp_path):
        G = build_graph(boundary_pair(0.9), 0.9)
        p = tmp_path / "g.bin"
        save_graph(p, G)
        assert load_graph(p).nnz == G.nnz

    def test_missing_self_loop_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        G = build_graph(random_unit_rows(rng, 10, 3), 0.3)
        pos = G.indptr[4] + int(np.searchsorted(G.neighbors(4)[0], 4))
        indptr = G.indptr.copy()
        indptr[5:] -= 1
        cut = NeighborGraph(m=G.m, tau=G.tau, indptr=indptr,
                            indices=np.delete(G.indices, pos), weights=np.delete(G.weights, pos))
        p = tmp_path / "g.bin"
        save_graph(p, cut)
        with pytest.raises(DataError, match="self-loop at row 4"):
            load_graph(p)

    def test_decreasing_offsets_rejected(self, tmp_path):
        G = build_graph(random_unit_rows(np.random.default_rng(18), 6, 3), 0.3)
        indptr = G.indptr.copy()
        indptr[[2, 3]] = indptr[[3, 2]]
        p = tmp_path / "g.bin"
        save_graph(p, replace(G, indptr=indptr))
        with pytest.raises(DataError, match="offsets decrease"):
            load_graph(p)

    def test_duplicated_self_loop_rejected(self, tmp_path):
        G = build_graph(random_unit_rows(np.random.default_rng(19), 6, 3), 0.3)
        pos = G.indptr[4] + int(np.searchsorted(G.neighbors(4)[0], 4))
        indptr = G.indptr.copy()
        indptr[5:] += 1
        p = tmp_path / "g.bin"
        save_graph(p, replace(G, indptr=indptr, indices=np.insert(G.indices, pos, 4),
                              weights=np.insert(G.weights, pos, np.float32(1.0))))
        with pytest.raises(DataError, match="strictly increasing"):
            load_graph(p)

    def test_tau_outside_unit_interval_rejected(self, tmp_path):
        G = build_graph(random_unit_rows(np.random.default_rng(20), 6, 3), 0.3)
        p = tmp_path / "g.bin"
        save_graph(p, replace(G, tau=float("nan")))
        with pytest.raises(DataError, match="tau"):
            load_graph(p)

    def test_corrupt_header_rejected(self, tmp_path):
        p = tmp_path / "g.bin"
        p.write_bytes(b"NOTAGRPH" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_graph(p)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        G = build_graph(random_unit_rows(rng, 10, 3), 0.3)
        p = tmp_path / "g.bin"
        save_graph(p, G)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_graph(p)

    def test_build_and_load_hold_int32_ids(self, tmp_path):
        G = build_graph(random_unit_rows(np.random.default_rng(21), 30, 5), 0.3)
        p = tmp_path / "g.bin"
        save_graph(p, G)
        assert G.indices.dtype == load_graph(p).indices.dtype == np.int32
        assert G.neighbors(0)[0].dtype == np.intp  # what numpy indexes with fastest
        assert p.stat().st_size == 32 + 8 * (G.m + 1) + 8 * G.nnz  # 4-byte ids, 4-byte weights

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_symmetry_keys_do_not_overflow_int32(self, tmp_path, symmetric):
        # m > 46341, so id * m passes 2^31 for the pair (46400, 49000): keys
        # computed in int32 would wrap, and the valid graph would be rejected
        m, pair = 50_000, (46_400, 49_000)
        rows = [(i, i) for i in range(m)] + [pair] + ([pair[::-1]] if symmetric else [])
        rows.sort()
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount([i for i, _ in rows], minlength=m), out=indptr[1:])
        indices = np.array([j for _, j in rows], dtype=np.int32)
        G = NeighborGraph(m=m, tau=0.9, indptr=indptr, indices=indices,
                          weights=np.ones(len(rows), dtype=np.float32))
        p = tmp_path / "g.bin"
        save_graph(p, G)
        if symmetric:
            assert graph_bytes(load_graph(p)) == graph_bytes(G)
        else:
            with pytest.raises(DataError, match="not symmetric"):
                load_graph(p)

    def test_relgrph1_cache_asks_for_a_rebuild(self, tmp_path):
        # the previous layout: u64 offsets, u64 column ids, f32 weights
        G = build_graph(random_unit_rows(np.random.default_rng(22), 6, 3), 0.3)
        p = tmp_path / "g.bin"
        p.write_bytes(b"RELGRPH1" + struct.pack("<QdQ", G.m, G.tau, G.nnz)
                      + G.indptr.astype("<u8").tobytes() + G.indices.astype("<u8").tobytes()
                      + G.weights.astype("<f4").tobytes())
        with pytest.raises(FormatError, match="no RELGRPH2 graph header; rebuild it"):
            load_graph(p)

    def test_asymmetry_detected(self, tmp_path):
        G = build_graph(EmbeddingMatrix(np.ones((2, 2))), 0.9)
        p = tmp_path / "g.bin"
        save_graph(p, G)
        raw = bytearray(p.read_bytes())
        raw[-8:-4] = np.float32(0.93).tobytes()  # corrupt the (1,0) weight only
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_graph(p)


def graph_bytes(G):
    return G.indptr.tobytes(), G.indices.tobytes(), G.weights.tobytes()


def hand_graph(m, edges, tau=0.9):
    """A CSR graph with every self-loop (weight 1) and the given
    (row, column, weight) edges, in row-major order."""
    edges = sorted([(i, i, 1.0) for i in range(m)] + list(edges))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount([i for i, _, _ in edges], minlength=m), out=indptr[1:])
    return NeighborGraph(m=m, tau=tau, indptr=indptr,
                         indices=np.array([j for _, j, _ in edges], dtype=np.int32),
                         weights=np.array([w for _, _, w in edges], dtype=np.float32))


def load_saved(tmp_path, G):
    p = tmp_path / "g.bin"
    save_graph(p, G)
    return load_graph(p)


class TestValidate:
    """``validate`` checks one band of _BAND_ROWS rows at a time, and sorts
    each band's upper edges by column with a 16-bit radix: one pass up to
    m = 2^16, two passes above."""

    # upper edges (0, B), (k, k + 2^16), B = _BAND_ROWS: each mirror lies in
    # a later band than its edge, and by the low 16 bits alone, the column B
    # would sort after the columns 2^16 + 1 and 2^16 + 2
    M = 70_000
    B = simgraph._BAND_ROWS
    PAIRS = [(0, B)] + [(k, k + (1 << 16)) for k in range(1, 5)]

    def mirrored(self, skip=None, weight=None):
        edges = []
        for i, j in self.PAIRS:
            edges.append((i, j, 0.95))
            if (j, i) != skip:
                edges.append((j, i, 0.95 if (j, i) != weight else 0.96))
        return hand_graph(self.M, edges)

    def test_ids_above_bit_16_load(self, tmp_path):
        G = self.mirrored()
        assert graph_bytes(load_saved(tmp_path, G)) == graph_bytes(G)

    @pytest.mark.parametrize("skip,weight", [((65537, 1), None), (None, (65538, 2)),
                                             ((B, 0), None), (None, (B, 0))])
    def test_missing_or_unequal_mirror_rejected(self, tmp_path, skip, weight):
        with pytest.raises(DataError, match="not symmetric"):
            load_saved(tmp_path, self.mirrored(skip, weight))

    @pytest.mark.parametrize("m", [5, 70_000])
    @pytest.mark.parametrize("lower", [[(3, 1), (4, 0)],   # each mirror in the other's row
                                       [(4, 0), (4, 1)]])  # same columns, in one row
    def test_mirror_in_another_row_rejected(self, tmp_path, monkeypatch, m, lower):
        # upper edges (0, 3) and (1, 4), and as many lower edges, where rows 3
        # and 4 stand for m - 2 and m - 1: two bands after rows 0 and 1's
        if m == 5:
            monkeypatch.setattr(simgraph, "_BAND_ROWS", 2)  # bands {0, 1}, {2, 3}, {4}
        far = {3: m - 2, 4: m - 1}
        edges = [(far.get(i, i), far.get(j, j), 0.95) for i, j in [(0, 3), (1, 4)] + lower]
        with pytest.raises(DataError, match="not symmetric"):
            load_saved(tmp_path, hand_graph(m, edges))

    def test_faults_raise_in_check_order_across_bands(self, tmp_path, monkeypatch):
        # row 0 (band 0) holds an unsorted row, row 5 (band 2) no self-loop:
        # the self-loops are checked first, in every band
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 2)
        G = hand_graph(6, [(0, 1, 0.95), (1, 0, 0.95)])
        cols = G.indices.copy()
        cols[:2] = cols[1::-1]
        cols[-1] = 4
        with pytest.raises(DataError, match="missing self-loop at row 5"):
            load_saved(tmp_path, replace(G, indices=cols))
        cols[-1] = 5
        with pytest.raises(DataError, match="column ids not strictly increasing"):
            load_saved(tmp_path, replace(G, indices=cols))

    def test_missing_self_loop_raised_past_an_asymmetric_band(self, tmp_path, monkeypatch):
        # band 0 holds the edge (0, 1) with no mirror, band 2 a row 5 with no
        # self-loop: the self-loops of every band are checked first
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 2)
        G = hand_graph(6, [(0, 1, 0.95)])
        cols = G.indices.copy()
        cols[-1] = 4
        with pytest.raises(DataError, match="missing self-loop at row 5"):
            load_saved(tmp_path, replace(G, indices=cols))

    @pytest.mark.parametrize("unsorted_row,lonely", [(0, (4, 5)), (4, (0, 1))])
    def test_unsorted_columns_raised_before_asymmetry(self, tmp_path, monkeypatch,
                                                      unsorted_row, lonely):
        # one band holds a row with its two columns swapped, another an edge
        # with no mirror, in either order
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 2)
        pair = (unsorted_row, unsorted_row + 1)
        G = hand_graph(6, [(*pair, 0.95), (*pair[::-1], 0.95), (*lonely, 0.95)])
        cols = G.indices.copy()
        lo = G.indptr[unsorted_row]
        cols[lo:lo + 2] = cols[lo:lo + 2][::-1].copy()
        with pytest.raises(DataError, match="column ids not strictly increasing"):
            load_saved(tmp_path, replace(G, indices=cols))

    def test_more_upper_edges_than_the_column_row_holds(self, tmp_path):
        # column 2, the last row, gets two upper edges but holds one entry:
        # the second would land past the end of the column ids
        G = hand_graph(3, [(0, 2, 0.95), (1, 2, 0.95)])
        with pytest.raises(DataError, match="not symmetric"):
            load_saved(tmp_path, G)

    def test_nan_weight_rejected(self, tmp_path):
        G = hand_graph(3, [(0, 1, 0.95), (1, 0, 0.95)])
        w = G.weights.copy()
        w[-1] = np.nan  # the self-loop of row 2
        with pytest.raises(DataError, match="not symmetric"):
            load_saved(tmp_path, replace(G, weights=w))

    @pytest.mark.parametrize("where", [slice(0, 2), slice(-2, None)])
    @pytest.mark.parametrize("change", ["duplicate", "swap"])
    def test_duplicated_or_unsorted_column_rejected(self, tmp_path, where, change):
        # row 2 holds columns 0, 1, 2, 3, 4; change its first or last two
        G = hand_graph(6, [(i, j, 0.95) for i in range(5) for j in range(5) if i != j])
        row = G.indices[G.indptr[2]:G.indptr[3]]
        head = row[where]
        head[:] = head[::-1] if change == "swap" else head[0]
        with pytest.raises(DataError, match="column ids not strictly increasing within a row"):
            load_saved(tmp_path, G)

    def test_peak_memory_per_edge(self, monkeypatch):
        # Beside the graph, validate holds O(m) arrays and one band's
        # temporaries, about 30 bytes per edge of the band; the full-length
        # check this replaced peaked at 13.5 bytes per edge
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 16)
        E = random_instance(0, m=3000, d=16, c=4, cluster_spread=0.05)[0]
        G = build_graph(E, 0.9)
        assert G.nnz > 200 * G.m, "precondition: edges dominate the O(m) arrays"
        tracemalloc.start()
        try:
            G.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.nnz, f"{peak / G.nnz:.2f} bytes per edge"


def whole_matrix_graph(E, tau):
    """The edge rule applied to all of U @ U.T at once: float32 weights,
    self-loops 1, edges where w32 >= edge_threshold(tau)."""
    U = unit_rows(E)
    sims = U @ U.T
    np.fill_diagonal(sims, 1.0)
    w32 = sims.astype(np.float32)
    keep = w32 >= edge_threshold(tau)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int64)
    return NeighborGraph(m=E.m, tau=float(tau), indptr=indptr,
                         indices=np.nonzero(keep)[1].astype(np.int32), weights=w32[keep])


class TestEdgeKernel:
    """One edge rule, ``edge_weights``, run by the build over blocks bounded
    by bytes and by the streaming scan one row at a time."""

    @staticmethod
    def record_blocks(monkeypatch, cap):
        """Set the block cap; return the list that collects each GEMM block's
        (rows, columns, dtype) that ``build_graph`` computes."""
        seen, gemm = [], simgraph._cosines

        def recording(A, B, buf):
            seen.append((len(A), len(B), A.dtype))
            return gemm(A, B, buf)
        monkeypatch.setattr(simgraph, "_cosines", recording)
        monkeypatch.setattr(simgraph, "_BLOCK_BYTES", cap)
        return seen

    @pytest.mark.parametrize("rows", [1, 3, "all"])
    def test_graph_independent_of_block_rows(self, monkeypatch, rows):
        # byte-identical to the whole-matrix rule: a wrong screen, a lost or
        # doubled mirror edge, or a misplaced self-loop changes the bytes
        instances = [(random_instance(seed, m=61, d=8, c=4)[0], 0.8) for seed in range(4)]
        instances += [(boundary_pair(0.9), 0.9), (rescaled_duplicates(), 0.9)]
        for E, tau in instances:
            reference = graph_bytes(whole_matrix_graph(E, tau))
            assert graph_bytes(build_graph(E, tau)) == reference
            cap = 8 * E.m * (E.m if rows == "all" else rows)
            seen = self.record_blocks(monkeypatch, cap)
            assert graph_bytes(build_graph(E, tau)) == reference
            assert all(8 * n * width <= max(cap, 8 * width) for n, width, _ in seen)
            monkeypatch.undo()

    @pytest.mark.parametrize("cap", [1, 8 * 50 * 7 + 5, 64 << 20])
    def test_float64_block_within_cap_or_one_row(self, monkeypatch, cap):
        m = 50 if cap < 64 << 20 else 9000  # 9000 rows of 1024 would be 70 MiB
        E = random_instance(3, m=m, d=4, c=3)[0]
        seen = self.record_blocks(monkeypatch, cap)
        build_graph(E, 0.999)
        assert all(dtype == np.float64 for _, _, dtype in seen)
        assert all(8 * rows * width <= max(cap, 8 * width) for rows, width, _ in seen)
        assert all(width <= m for _, width, _ in seen)

    @pytest.mark.parametrize("cap", [1, 8 * 60 * 7 + 5, 64 << 20])
    def test_unclustered_rows_take_the_full_upper_triangle(self, monkeypatch, cap):
        # no row lies within 45 degrees of another, so there is no ball: a
        # block of rows start, start + 1, ... holds columns start .. m - 1
        m = 60
        E = random_instance(3, m=m, d=64, c=3, noise_fraction=1.0)[0]
        seen = self.record_blocks(monkeypatch, cap)
        assert graph_bytes(build_graph(E, 0.3)) == graph_bytes(whole_matrix_graph(E, 0.3))
        rows = [n for n, _, _ in seen]
        starts = [m - width for _, width, _ in seen]
        assert starts == list(range(0, m, max(1, cap // (8 * m))))
        assert starts == np.cumsum([0] + rows[:-1]).tolist() and sum(rows) == m

    def test_cosines_above_one_store_exactly_one(self, tmp_path):
        E = rescaled_duplicates()
        U = unit_rows(E)
        above = np.argwhere(U @ U.T > 1.0)
        assert above.size, "precondition: some float64 cosines exceed 1"
        G = build_graph(E, 0.9)
        W = G.dense_weights()
        assert (W[above[:, 0], above[:, 1]] == 1.0).all()
        assert W.max() == 1.0
        p = tmp_path / "g.bin"
        save_graph(p, G)
        assert graph_bytes(load_graph(p)) == graph_bytes(G)  # load_graph validates
        C = ConfidenceVector(np.random.default_rng(1).uniform(0.1, 0.9, E.m))
        for S in ([0, 12], [1, 13, 25, 37], list(range(0, E.m, 5))):
            fast = objective(G, C, S, Utility.tanh())
            assert fast == pytest.approx(naive_objective(E, C, 0.9, S, np.tanh), abs=1e-9)

    def test_edge_weights_rounds_once_and_recomputes_the_band(self):
        # row 0 of the band pair against columns 0, 1, 1, 0, 1: a cosine a few
        # ulp above 1, the pair's rounding midpoint, a plain cosine, one just
        # below the screen, and the floor of tau 0.5, a rounding midpoint
        # too. Cosines at a midpoint are recomputed from U, whatever the
        # block says.
        E, exact = band_pair()
        U, floor = unit_rows(E), edge_floor(0.5)
        mid = float((math.floor(exact * 2 ** 24) + Fraction(1, 2)) / 2 ** 24)
        below = np.nextafter(floor - simgraph.rounding_band(U.shape[1]), -np.inf)
        sims = np.array([[1.0 + 2 ** -51, mid, 0.75 + 2 ** -30, below, floor]])
        flat, w32 = simgraph.edge_weights(sims, (0,), [0, 1, 1, 0, 1], U, floor)
        assert flat.tolist() == [0, 1, 2, 4]
        assert w32.dtype == np.float32
        w = float(exact_float32(exact))
        assert w32.tolist() == [1.0, w, 0.75, w]

    def test_exact_weight_rounds_once_ties_to_even(self):
        mid = 0.75 + 2.0 ** -25  # between 0.75 (even) and 0.75 + 2^-24
        assert simgraph.exact_weight(np.array([1.0]), np.array([mid])) == np.float32(0.75)
        # 2^-80 above the midpoint: float64 drops it, so rounding through
        # float64 would tie to 0.75
        up = simgraph.exact_weight(np.array([1.0, 2.0 ** -40]), np.array([mid, 2.0 ** -40]))
        assert up == np.float32(0.75 + 2.0 ** -24)


def exact_float32(x):
    """The float32 nearest x in [0.5, 1), ties to even: round() on a
    Fraction rounds half to even, on the float32 grid of that binade."""
    assert Fraction(1, 2) <= x < 1
    return np.float32(round(x * 2 ** 24) / 2 ** 24)


class TestPureEdgeRule:
    """A pair's edge and weight depend on the pair alone: the exact cosine,
    rounded once to float32, in the build, the cache and the streaming scan."""

    @pytest.mark.parametrize("at", ["weight", "floor"])
    def test_band_pair_takes_its_exact_weight_everywhere(self, tmp_path, at):
        # the GEMM's and the gemv's float64 cosines round to different
        # float32 weights; with tau just above the midpoint, one of them
        # would keep the edge and the other drop it
        E, exact = band_pair()
        w = exact_float32(exact)
        up = exact_float32((math.floor(exact * 2 ** 24) + 1) / Fraction(2 ** 24))
        tau = 0.5 if at == "weight" else float(up)
        expected = {(0, 0, 1.0), (1, 1, 1.0)} | ({(0, 1, float(w)), (1, 0, float(w))}
                                                 if w >= tau else set())
        G = build_graph(E, tau)
        assert edge_set(G) == expected
        assert edge_set(load_saved(tmp_path, G)) == expected
        C = ConfidenceVector([0.9, 0.5])
        cfg = SelectionConfig(budget=2, tau=tau, utility="identity")
        streamed, graphed = select_streaming(E, C, cfg), select(G, C, None, cfg)
        assert streamed.order == graphed.order == [0, 1]
        assert streamed.objective_trace == graphed.objective_trace
        assert graphed.objective_trace[0] == 0.9 + (float(w) * 0.9 if w >= tau else 0.0)


def clustered(seed, m=400, d=16):
    return random_instance(seed, m=m, d=d, c=6, cluster_spread=0.05, noise_fraction=0.2)[0]


def two_balls():
    """Balls about e1 (rows 0, 2, 5) and e2 (rows 1, 4), and two loose
    rows: row 3, 60 degrees from e2, leads alone, as does row 6, -e1. At
    tau 0.6 row 3 lies within ball e2's reach (radius 5 degrees plus the 53
    degree edge angle), and no later row within ball e1's."""
    a = math.radians(5.0)
    return EmbeddingMatrix(np.array([
        [1, 0, 0], [0, 1, 0], [math.cos(a), math.sin(a), 0],
        [0, 0.5, math.sqrt(0.75)], [0, math.cos(2 * a), math.sin(2 * a)],
        [math.cos(a), 0, math.sin(a)], [-1, 0, 0]]))


def duplicated(seed=0, n=6, copies=25, d=16):
    """Each of n rows copies times: balls of radius 0."""
    base = np.random.default_rng(seed).standard_normal((n, d))
    return EmbeddingMatrix(np.repeat(base, copies, axis=0).astype(np.float32))


class TestPrunedBuild:
    """Leader balls skip the pairs the triangle inequality rules out; the
    bytes equal the whole-matrix rule's whatever the layout."""

    INSTANCES = [
        ("clustered", lambda: clustered(0), 0.9),
        ("clustered-tau-1", lambda: clustered(1), 1.0),
        ("unclustered", lambda: random_instance(2, m=300, d=64, c=4, noise_fraction=1.0)[0], 0.3),
        ("duplicates", duplicated, 0.9),
        ("duplicates-tau-1", duplicated, 1.0),
        ("rescaled-duplicates", rescaled_duplicates, 1.0),
        ("boundary-pair", lambda: boundary_pair(0.9), 0.9),
    ]

    @pytest.mark.parametrize("cap", [1, 8 * 64 * 5, 64 << 20])
    @pytest.mark.parametrize("name,make,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_equals_whole_matrix_graph(self, monkeypatch, cap, name, make, tau):
        E = make()
        reference = graph_bytes(whole_matrix_graph(E, tau))
        monkeypatch.setattr(simgraph, "_BLOCK_BYTES", cap)
        assert graph_bytes(build_graph(E, tau)) == reference

    @pytest.mark.parametrize("angle,leaders", [(10.0, 256), (30.0, 256), (45.0, 3)])
    def test_equals_whole_matrix_graph_for_other_balls(self, monkeypatch, angle, leaders):
        # smaller and larger balls, and a leader cap reached early (most rows loose)
        monkeypatch.setattr(simgraph, "_BALL_ANGLE", math.radians(angle))
        monkeypatch.setattr(simgraph, "_MAX_LEADERS", leaders)
        for E, tau in [(clustered(3), 0.9), (duplicated(), 1.0)]:
            assert graph_bytes(build_graph(E, tau)) == graph_bytes(whole_matrix_graph(E, tau))

    @pytest.mark.parametrize("delta", [1e-5, 1e-3])
    def test_edge_at_the_reach_of_a_ball_is_kept(self, delta):
        # a ball {0, 1} of radius 10 degrees about e1, and row 2 beyond row 0
        # on the same great circle, delta short of the edge angle from it: its
        # angle to the centre is delta short of the ball's reach
        r, theta = math.radians(10.0), math.acos(0.6)
        E = EmbeddingMatrix(np.array([[math.cos(a), math.sin(a), 0.0]
                                      for a in (r, -r, r + theta - delta)]))
        first_ball = simgraph._balls(unit_rows(E), edge_floor(0.6))[2][0]
        assert first_ball[:2] == (0, 2), "precondition"
        G = build_graph(E, 0.6)
        assert 2 in G.neighbors(0)[0].tolist()
        W = whole_matrix_graph(E, 0.6)
        assert graph_bytes(G) == graph_bytes(W)
        # the rows on demand keep it too
        for i, (js, ws) in enumerate(simgraph.ball_stage(E, 0.6)([0, 1, 2])):
            wj, ww = W.neighbors(i)
            assert js.tobytes() == wj.tobytes() and ws.tobytes() == ww.tobytes(), i

    def test_balls_hand_each_group_its_columns(self):
        E = two_balls()
        U = unit_rows(E)
        order, P, groups, _ = simgraph._balls(U, edge_floor(0.6))
        assert order.tolist() == [0, 2, 5, 1, 4, 3, 6]
        assert np.array_equal(P, U[order])
        assert [(lo, hi, at.tolist()) for lo, hi, at in groups] == [
            (0, 3, [0, 1, 2]), (3, 5, [3, 4, 5]), (5, 7, [5, 6])]
        assert graph_bytes(build_graph(E, 0.6)) == graph_bytes(whole_matrix_graph(E, 0.6))

    @pytest.mark.parametrize("name,make,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_balls_tile_the_rows_in_index_order(self, name, make, tau):
        U = unit_rows(make())
        order, P, groups, _ = simgraph._balls(U, edge_floor(tau))
        assert np.array_equal(P, U[order])
        assert sorted(order.tolist()) == list(range(len(U)))
        assert [lo for lo, _, _ in groups] == [0] + [hi for _, hi, _ in groups[:-1]]
        assert groups[-1][1] == len(U)
        for lo, hi, at in groups:
            assert (np.diff(order[lo:hi]) > 0).all()  # index order within a group
            assert at[:hi - lo].tolist() == list(range(lo, hi))  # own rows first
            assert (np.diff(at) > 0).all() and (at[hi - lo:] >= hi).all()  # then later rows

    def test_pruning_skips_most_pairs_on_clustered_rows(self, monkeypatch):
        E = random_instance(0, m=2000, d=32, c=10, cluster_spread=0.05, noise_fraction=0.2)[0]
        scored, gemm = [], simgraph._cosines

        def counting(A, B, buf):
            scored.append(len(A) * len(B))
            return gemm(A, B, buf)
        monkeypatch.setattr(simgraph, "_cosines", counting)
        G = build_graph(E, 0.9)
        assert graph_bytes(G) == graph_bytes(whole_matrix_graph(E, 0.9))
        assert G.nnz > 20 * E.m, "precondition: cross edges inside the clusters"
        assert sum(scored) < E.m * (E.m + 1) // 4, f"{sum(scored)} pairs scored"

    def test_peak_memory_per_block_and_edge(self, monkeypatch):
        # The GEMM loop holds a few 1 MiB blocks of cosines (the whole m x m
        # matrix would be 72 MB) and the records so far; from then on the
        # build holds the records (12 bytes per edge with i <= j), the CSR
        # (8 bytes per edge) and, beside them, one band's temporaries and
        # the segments' unused tails. The full-length sorts this replaced
        # peaked 3.1 bytes per edge above the records and the CSR.
        cap = 1 << 20
        monkeypatch.setattr(simgraph, "_BLOCK_BYTES", cap)
        monkeypatch.setattr(simgraph, "_SEGMENT_BYTES", cap)
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 16)
        E = random_instance(0, m=3000, d=16, c=4, cluster_spread=0.05)[0]
        tracemalloc.start()
        try:
            G = build_graph(E, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.nnz > 200 * G.m, "precondition: edges dominate the O(m) arrays"
        held = 12 * (G.nnz + G.m) // 2 + 8 * G.nnz
        assert peak < held + 2 * G.nnz, f"{(peak - held) / G.nnz:.2f} bytes per edge beside them"

    def test_first_segment_holds_no_more_records_than_the_pairs(self):
        # A block keeps at most the pairs it multiplies, so those bound the
        # records, and the first segment is sized by them, not by the upper
        # triangle (4.5M records, 54 MB, here): the peak stays within the
        # pairs' records, two blocks and the CSR.
        E = random_instance(0, m=3000, d=16, c=10, cluster_spread=0.1, noise_fraction=0.2)[0]
        stage = simgraph.ball_stage(E, 0.9)
        pairs = stage.build_pairs()
        tracemalloc.start()
        try:
            G = stage.graph()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs < min(E.m * (E.m + 1) // 2, simgraph._SEGMENT_BYTES // 12), "precondition"
        bound = 12 * pairs + 2 * simgraph._BLOCK_BYTES + 8 * G.nnz
        assert peak < bound, f"{peak / 1e6:.1f} MB against {bound / 1e6:.1f} MB"


def two_directions(m, seed=0, d=8):
    """m rows about two directions, in random order: edges join rows of
    every band."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2, d))
    rows = base[rng.integers(0, 2, m)] + 0.05 * rng.standard_normal((m, d))
    return EmbeddingMatrix(rows.astype(np.float32))


class TestBands:
    """The build and ``validate`` work in bands of _BAND_ROWS rows; the
    bytes do not depend on where the bands fall."""

    @pytest.mark.parametrize("band", [1, 3, 7])
    def test_equals_whole_matrix_graph_at_band_edges(self, monkeypatch, band):
        monkeypatch.setattr(simgraph, "_BAND_ROWS", band)
        for m in [m for m in (band - 1, band, band + 1) if m]:
            E = two_directions(m, seed=m)
            G = build_graph(E, 0.9)
            assert graph_bytes(G) == graph_bytes(whole_matrix_graph(E, 0.9)), m
            if m > band:
                rows = np.repeat(np.arange(G.m), np.diff(G.indptr))
                assert (rows // band != G.indices // band).any(), "precondition"
            G.validate()

    def test_band_without_edges(self, monkeypatch):
        # rows 3..5, the second of three 3-row bands, are orthogonal to
        # every other row; the rows of the other bands lie about e1
        monkeypatch.setattr(simgraph, "_BAND_ROWS", 3)
        rows = np.zeros((9, 8))
        near = [0, 1, 2, 6, 7, 8]
        rows[near, 0] = 1.0
        rows[near, 1:3] = 0.05 * np.random.default_rng(0).standard_normal((6, 2))
        rows[3:6, 3:6] = np.eye(3)
        E = EmbeddingMatrix(rows.astype(np.float32))
        G = build_graph(E, 0.9)
        assert np.diff(G.indptr).tolist() == [6, 6, 6, 1, 1, 1, 6, 6, 6], "precondition"
        assert graph_bytes(G) == graph_bytes(whole_matrix_graph(E, 0.9))
        G.validate()


def loose(seed=0, m=1500, d=64):
    """Wide classes at tau 0.7: balls whose columns hold rows of later groups."""
    return random_instance(seed, m=m, d=d, c=10, cluster_spread=0.1, noise_fraction=0.2)[0]


def thousand_classes(seed=0, m=2000, d=16):
    return random_instance(seed, m=m, d=d, c=1000, cluster_spread=0.05, noise_fraction=0.2)[0]


class TestRowSource:
    """A call of a ``BallStage`` gives any rows of ``build_graph``'s graph,
    byte for byte, from the ball stage alone."""

    INSTANCES = [
        ("clustered", lambda: clustered(0), 0.9),
        ("loose", loose, 0.7),
        ("thousand-classes", thousand_classes, 0.9),
        ("band-pair", lambda: band_pair()[0], 0.5),
        ("boundary-pair", lambda: boundary_pair(0.9), 0.9),
    ]

    @staticmethod
    def count_pairs(monkeypatch):
        scored, gemm = [], simgraph._cosines

        def counting(A, B, buf):
            scored.append((len(A), len(B)))
            return gemm(A, B, buf)
        monkeypatch.setattr(simgraph, "_cosines", counting)
        return scored

    @pytest.mark.parametrize("cap", [8 * 64 * 5, 8 << 20])
    @pytest.mark.parametrize("name,make,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_every_row_equals_the_graphs(self, monkeypatch, cap, name, make, tau):
        monkeypatch.setattr(simgraph, "_BLOCK_BYTES", cap)
        E = make()
        G = build_graph(E, tau)
        stage = simgraph.ball_stage(E, tau)
        if name == "loose":
            assert any(at.size > hi - lo for lo, hi, at in stage.groups[:-1]), "precondition"
        ids = np.random.default_rng(0).permutation(E.m)
        chunks = np.split(ids, [1, 4, 40, 41]) if E.m > 41 else [ids[:1], ids[1:]]
        rows = [row for chunk in chunks for row in stage(chunk)]
        for i, (js, ws) in zip(ids.tolist(), rows):
            gj, gw = G.neighbors(i)
            assert js.dtype == gj.dtype and np.array_equal(js, gj), i
            assert ws.dtype == np.float32 and ws.tobytes() == gw.tobytes(), i
        assert (stage.rows, stage.edges) == (E.m, G.nnz)

    @pytest.mark.parametrize("name,make,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_counts_are_the_pairs_multiplied(self, monkeypatch, name, make, tau):
        E = make()
        scored = self.count_pairs(monkeypatch)
        stage = simgraph.ball_stage(E, tau)
        pairs = stage.build_pairs()
        stage.graph()
        assert sum(a * b for a, b in scored) == pairs
        scored.clear()
        stage = simgraph.ball_stage(E, tau)
        stage(np.arange(0, E.m, 3))
        assert sum(a * b for a, b in scored) == stage.pairs
        # a group's rows are multiplied against the group's columns at most
        assert stage.pairs <= stage.row_pairs() * E.m

    @pytest.mark.parametrize("name,make,tau", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_rows_and_count_read_one_reach(self, name, make, tau):
        # past ball b the reach test is the test of b's columns, and every
        # group's rows asked for at once are multiplied against exactly the
        # columns that row_pairs counts
        stage = simgraph.ball_stage(make(), tau)
        for b, (lo, hi, at) in enumerate(stage.groups[:len(stage.near)]):
            assert np.array_equal(np.flatnonzero(stage.near[b, hi:]) + hi, at[hi - lo:]), b
        mean = stage.row_pairs()
        stage(np.arange(stage.m))
        assert stage.pairs == round(mean * stage.m)

    def test_mirror_side_comes_from_earlier_balls(self):
        # row 3, loose, lies within ball e2's reach, so its row is multiplied
        # against that ball's rows 1 and 4 too, and keeps its edge to row 4
        # (50 degrees), which the build finds from row 4's side
        E = two_balls()
        stage = simgraph.ball_stage(E, 0.6)
        G = build_graph(E, 0.6)
        js, ws = stage([3])[0]
        assert js.tolist() == G.neighbors(3)[0].tolist() == [3, 4]
        assert ws.tobytes() == G.neighbors(3)[1].tobytes()
        assert stage.pairs == 2 + 2  # the loose rows 3 and 6, and ball e2's rows 1 and 4

    def test_a_block_takes_the_balls_any_of_its_rows_reach(self):
        # rows 3 and 6, loose, in one call: row 6 (-e1) is multiplied against
        # ball e2's rows only because row 3 lies within e2's reach, and those
        # pairs, far from row 6, fail the edge rule
        E = two_balls()
        stage = simgraph.ball_stage(E, 0.6)
        G = build_graph(E, 0.6)
        rows = stage([3, 6])
        for i, (js, ws) in zip([3, 6], rows):
            gj, gw = G.neighbors(i)
            assert js.tobytes() == gj.tobytes() and ws.tobytes() == gw.tobytes(), i
        assert [js.tolist() for js, _ in rows] == [[3, 4], [6]]
        assert (stage.pairs, stage.edges) == (2 * 4, 3)

    @pytest.mark.parametrize("m", [2000, 8000])
    def test_blocks_stay_within_the_cap_whatever_m(self, monkeypatch, m):
        # unclustered rows (no two within 45 degrees in 64 dimensions): one
        # group of m columns, so 256 rows would take 8 * 256 * m bytes of
        # cosines (16 MB at m = 8000) without the cap
        cap, d = 1 << 20, 64
        monkeypatch.setattr(simgraph, "_BLOCK_BYTES", cap)
        E = random_instance(1, m=m, d=d, c=4, noise_fraction=1.0)[0]
        stage = simgraph.ball_stage(E, 0.9)
        assert len(stage.groups) == 1, "precondition"
        scored = self.count_pairs(monkeypatch)
        tracemalloc.start()
        try:
            rows = stage(np.arange(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 256
        assert all(8 * a * b <= cap for a, b in scored)
        # the gathered columns and their ids (O(m d)), then the blocks
        assert peak < (8 * d + 24) * m + 3 * cap, f"{peak} bytes"

    def test_a_used_up_stage_says_so(self):
        # graph() lets P, the groups and the reach go; every later use is refused by name
        E = clustered(1, m=60)
        stage = simgraph.ball_stage(E, 0.9)
        stage.graph()
        C = ConfidenceVector(np.full(E.m, 0.5))
        uses = [stage.build_pairs, stage.row_pairs, stage.graph, lambda: stage([0]),
                lambda: select(stage, C, None, SelectionConfig(budget=1, tau=0.9))]
        for use in uses:
            with pytest.raises(RuntimeError, match="used up by graph"):
                use()
