"""gs_setup discovery and the GSHandle local plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import MIN, SUM, MAX, Runtime
from repro.gs import gs_setup
from repro.mesh import (
    BoxMesh,
    Partition,
    continuous_numbering,
    dg_face_numbering,
)


def setup_on(nranks, gids_fn):
    """Run gs_setup on every rank; return handle summaries."""

    def main(comm):
        h = gs_setup(gids_fn(comm.rank), comm)
        return {
            "uids": h.uids.copy(),
            "neighbors": h.neighbors,
            "shared": h.uids[h.shared_index].tolist(),
            "send": {q: h.uids[ix].tolist()
                     for q, ix in h.neighbor_send_index.items()},
            "owners": h.owners,
            "max_gid": h.max_gid,
            "stats": h.setup_stats,
        }

    return Runtime(nranks=nranks).run(main)


class TestDiscovery:
    def test_two_rank_overlap(self):
        # Rank 0 holds {0,1,2,3}, rank 1 holds {2,3,4,5}.
        gids = {0: np.array([0, 1, 2, 3]), 1: np.array([2, 3, 4, 5])}
        res = setup_on(2, lambda r: gids[r])
        assert res[0]["neighbors"] == [1]
        assert res[0]["shared"] == [2, 3]
        assert res[0]["send"] == {1: [2, 3]}
        assert res[1]["send"] == {0: [2, 3]}
        assert res[0]["max_gid"] == 5

    def test_three_way_sharing(self):
        # Id 7 lives on all three ranks.
        gids = {
            0: np.array([7, 1]),
            1: np.array([7, 2]),
            2: np.array([7, 3]),
        }
        res = setup_on(3, lambda r: gids[r])
        for r in range(3):
            assert res[r]["shared"] == [7]
            others = sorted(set(range(3)) - {r})
            assert res[r]["neighbors"] == others
            assert res[r]["owners"] == [others]

    def test_no_sharing(self):
        res = setup_on(2, lambda r: np.array([r * 10, r * 10 + 1]))
        assert res[0]["neighbors"] == []
        assert res[0]["shared"] == []
        assert res[0]["stats"]["n_shared"] == 0

    def test_symmetry_of_send_lists(self):
        rng_gids = {
            0: np.array([0, 1, 5, 9, 12]),
            1: np.array([1, 2, 5, 13]),
            2: np.array([5, 9, 2, 40]),
        }
        res = setup_on(3, lambda r: rng_gids[r])
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                la = res[a]["send"].get(b, [])
                lb = res[b]["send"].get(a, [])
                assert la == lb  # identical order both sides

    def test_duplicate_local_ids_single_uid(self):
        gids = {0: np.array([4, 4, 4, 1]), 1: np.array([4])}
        res = setup_on(2, lambda r: gids[r])
        assert res[0]["uids"].tolist() == [1, 4]
        assert res[0]["send"] == {1: [4]}

    def test_validation(self):
        def main(comm):
            gs_setup(np.array([1.5, 2.5]), comm)

        with pytest.raises(Exception, match="integer"):
            Runtime(nranks=1).run(main)

        def main2(comm):
            gs_setup(np.array([-1, 2]), comm)

        with pytest.raises(Exception, match="non-negative"):
            Runtime(nranks=1).run(main2)


class TestLocalPlans:
    def test_condense_and_scatter_roundtrip(self):
        def main(comm):
            gids = np.array([[3, 3], [5, 7]])
            h = gs_setup(gids, comm)
            x = np.array([[1.0, 2.0], [4.0, 8.0]])
            cond = h.condense(x, SUM)
            out = h.scatter(cond)
            return cond.tolist(), out.tolist()

        cond, out = Runtime(nranks=1).run(main)[0]
        assert cond == [3.0, 4.0, 8.0]  # uids sorted: 3, 5, 7
        assert out == [[3.0, 3.0], [4.0, 8.0]]

    def test_condense_max(self):
        def main(comm):
            h = gs_setup(np.array([1, 1, 2]), comm)
            return h.condense(np.array([5.0, 9.0, 2.0]), MAX).tolist()

        assert Runtime(nranks=1).run(main)[0] == [9.0, 2.0]

    def test_condense_shape_checked(self):
        def main(comm):
            h = gs_setup(np.array([1, 2]), comm)
            h.condense(np.zeros(3), SUM)

        with pytest.raises(Exception, match="shape"):
            Runtime(nranks=1).run(main)

    def test_wire_bytes_pairwise(self):
        gids = {0: np.array([0, 1, 2]), 1: np.array([2, 3])}

        def main(comm):
            h = gs_setup(gids[comm.rank], comm)
            return h.wire_bytes_pairwise()

        res = Runtime(nranks=2).run(main)
        assert res == [8, 8]  # one shared id each direction

    def test_shared_gids_with(self):
        gids = {0: np.array([9, 4, 2]), 1: np.array([4, 9, 77])}

        def main(comm):
            h = gs_setup(gids[comm.rank], comm)
            return h.shared_gids_with(1 - comm.rank).tolist()

        assert Runtime(nranks=2).run(main) == [[4, 9], [4, 9]]


def reference_condense(gids, x, op):
    """The plain condense: one reduceat over gid-sorted entries."""
    g = np.asarray(gids).reshape(-1)
    order = np.argsort(g, kind="stable")
    s = g[order]
    starts = np.nonzero(np.concatenate(([True], s[1:] != s[:-1])))[0]
    return op.ufunc.reduceat(np.asarray(x).reshape(-1)[order], starts)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def condense_matches_reference(nranks, gids_fn, values_fn, ops):
    """Check handle.condense (and the scatter map built by the same
    sort) against the references on every rank."""

    def main(comm):
        gids = gids_fn(comm.rank)
        h = gs_setup(gids, comm)
        uids, inverse = np.unique(gids.reshape(-1), return_inverse=True)
        assert_bitwise(h.uids, uids)
        assert_bitwise(h.inverse, inverse)
        for op in ops:
            x = values_fn(comm.rank, gids.shape)
            with np.errstate(all="ignore"):
                got = h.condense(x, op)
                want = reference_condense(gids, x, op)
            assert_bitwise(got, want)
        return [cols.shape[0] for _, cols in h.plan]

    return Runtime(nranks=nranks).run(main)


#: Values that stress the fold order and sign handling.
HARD_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, np.inf, -np.inf, np.nan]
)


class TestCondensePlan:
    @settings(max_examples=40, deadline=None)
    @given(
        mults=st.lists(st.integers(1, 12), min_size=1, max_size=30),
        data=st.data(),
        op=st.sampled_from([SUM, MAX, MIN]),
    )
    def test_matches_reduceat_reference(self, mults, data, op):
        # k >= 9 sends numpy's add reduction into its pairwise tail.
        gids = np.repeat(7 * np.arange(len(mults)), mults)
        gids = gids[data.draw(st.permutations(range(len(gids))))]
        values = np.array(
            data.draw(
                st.lists(
                    HARD_VALUES | st.floats(width=64),
                    min_size=len(gids),
                    max_size=len(gids),
                )
            ),
            dtype=np.float64,
        )
        ks = condense_matches_reference(
            1, lambda r: gids, lambda r, shape: values, [op]
        )[0]
        assert ks == sorted(set(mults))

    def test_fold_order_kept_for_cancelling_segment(self):
        gids = np.array([5, 5, 5, 2, 2, 9])
        x = np.array([1.0, 1e16, -1e16, 3.0, 4.0, 6.0])

        def main(comm):
            return gs_setup(gids, comm).condense(x, SUM)

        got = Runtime(nranks=1).run(main)[0]
        assert_bitwise(got, reference_condense(gids, x, SUM))
        # numpy folds 1 + (1e16 + -1e16), not (1 + 1e16) + -1e16.
        assert got.tolist() == [7.0, 1.0, 6.0]

    def test_all_negative_zero_segments(self):
        gids = np.repeat(np.arange(12), np.arange(1, 13))
        ks = condense_matches_reference(
            1,
            lambda r: gids,
            lambda r, shape: np.full(shape, -0.0),
            [SUM, MAX, MIN],
        )[0]
        assert ks == list(range(1, 13))

    def test_mixed_signed_zeros_keep_entry_order(self):
        # max/min of -0.0 and 0.0 depends on which comes first.
        gids = np.array([1, 1, 2, 2, 3, 3, 3])
        x = np.array([-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0])
        condense_matches_reference(
            1, lambda r: gids, lambda r, shape: x, [SUM, MAX, MIN]
        )

    def test_integer_and_bool_dtypes_follow_reduceat(self):
        gids = np.array([3, 3, 1, 4, 4, 4])
        for x in (
            np.array([1, 2, 3, 4, 5, 6], dtype=np.int32),
            np.array([1, 0, 1, 1, 1, 0], dtype=bool),
        ):
            condense_matches_reference(
                1, lambda r: gids, lambda r, shape: x, [SUM, MAX]
            )

    @pytest.mark.parametrize(
        "proc_shape, ks", [((1, 1, 1), [2]), ((2, 2, 1), [1, 2])]
    )
    def test_dg_face_handle(self, proc_shape, ks):
        # On one rank every periodic face pairs two local elements, so
        # the plan is a single k = 2 group; faces cut by the partition
        # leave one local entry each.
        part = Partition(BoxMesh(shape=(4, 2, 2), n=4), proc_shape=proc_shape)
        got = condense_matches_reference(
            part.nranks,
            lambda r: dg_face_numbering(part, r),
            lambda r, shape: np.random.default_rng(r).standard_normal(shape),
            [SUM, MAX, MIN],
        )
        assert got == [ks] * part.nranks

    def test_nekbone_c0_handle(self):
        mesh = BoxMesh(shape=(4, 2, 2), n=4, periodic=(False,) * 3)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        ks = condense_matches_reference(
            2,
            lambda r: continuous_numbering(part, r),
            lambda r, shape: np.random.default_rng(r).standard_normal(shape),
            [SUM, MAX, MIN],
        )
        assert ks == [[1, 2, 4, 8]] * 2

    def test_empty_handle(self):
        def main(comm):
            h = gs_setup(np.empty(0, dtype=np.int64), comm)
            return h.plan, h.condense(np.empty(0), SUM)

        plan, cond = Runtime(nranks=1).run(main)[0]
        assert plan == ()
        assert_bitwise(cond, np.empty(0))
