import gc
import hashlib
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from enhcone.combinatorics import (
    Bipartition,
    FlagShape,
    bipartition,
    bipartitions,
    flag_shape,
    is_distinguished,
)
from enhcone.gflinalg import (
    MatrixGF,
    SubspaceGF,
    enumerate_subspaces,
    kernel,
    quotient_map,
    rank,
)
from enhcone.normalform import (
    GradedPair,
    classify_pair,
    explicit_decomposition,
    jordan_type,
    normal_pair,
)
from enhcone import fibers, gflinalg, normalform
from enhcone.checks import check_alpha_partition, check_polynomial_count, check_split_product
from enhcone.fibers import (
    FiberCache,
    FiberQuery,
    InterpolationError,
    QPolynomial,
    closure_contains,
    closure_pairs,
    count_fiber,
    count_fiber_memo,
    count_lambda_fixed,
    enumerate_fiber_flags,
    enumerate_lambda_fixed_flags,
    fiber_cache,
    fiber_dimension_bound,
    fiber_polynomial,
    fiber_profiles,
    interpolate_qpoly,
    lambda_fixed_profiles,
    orbit_dimension,
    q_binomial,
    q_power,
    split_profiles,
)
from oracles import (
    classify_by_centralizer,
    closure_by_count,
    contains_subspace,
    count_by_transitions,
    dense_add,
    dense_mul,
    dense_sub,
    flag_histogram,
    gaussian_binomial,
    graded_flag_count,
    graded_step,
    hall_row,
    held_out_prime,
    interpolated_row,
    kernel_step,
    next_prime_after,
    prime_schedule,
    reduce_apply,
    rref,
    stabilizer_orbit_dimension,
    transitions,
    unmemoized_fiber_count,
    unmemoized_lambda_fixed_count,
    walk_count,
    x_zero_row,
    zero_graded,
)


@lru_cache(maxsize=None)
def _subspaces(n: int, p: int, d: int):
    return tuple(enumerate_subspaces(SubspaceGF.full(n, p), d))


def brute_fiber_count(q: FiberQuery) -> int:
    """Independent oracle: filter chains of subspaces of the ambient space
    and test the flag conditions by direct matrix arithmetic."""
    dims = q.shape.dims
    n, p, j = dims[-1], q.p, q.shape.marker
    levels = dims[1:]

    def chains(prefix):
        i = len(prefix)
        if i == len(levels):
            yield prefix
            return
        for s in _subspaces(n, p, levels[i]):
            if prefix and not contains_subspace(s, prefix[-1]):
                continue
            yield from chains(prefix + (s,))

    if j == 0 and any(q.v):
        return 0
    count = 0
    for flag in chains(()):
        ok = True
        for i, w in enumerate(flag):
            for row in w.basis:
                img = q.x.matvec(row)
                if i == 0:
                    ok = ok and not any(img)
                else:
                    ok = ok and flag[i - 1].contains(img)
            if not ok:
                break
        if ok and j >= 1:
            ok = flag[j - 1].contains(q.v)
        count += ok
    return count


class TestCountFiber:
    def test_projective_line(self):
        q = FiberQuery.over_orbit(bipartition((), (1, 1)), bipartition((), (2,)), 2)
        assert count_fiber(q) == 3

    def test_matches_brute_force_exhaustively(self):
        for n in range(4):
            for p in (2, 3):
                for big in bipartitions(n):
                    shape = flag_shape(big)
                    for small in bipartitions(n):
                        q = FiberQuery.over_orbit(small, big, p)
                        assert count_fiber(q) == brute_fiber_count(q), (
                            str(big),
                            str(small),
                            p,
                        )

    def test_matches_brute_force_n4_spot(self):
        big = bipartition((1, 1), (2,))
        small = bipartition((), (1, 1, 1, 1))
        q = FiberQuery.over_orbit(small, big, 2)
        assert count_fiber(q) == brute_fiber_count(q)

    def test_birational_over_own_orbit(self):
        for n in range(4):
            for b in bipartitions(n):
                for p in (2, 3):
                    assert count_fiber(FiberQuery.over_orbit(b, b, p)) == 1

    def test_one_step_shape_needs_zero_nilpotent(self):
        # x(W_1) <= W_0 = 0 forces x = 0 when the flag is the single step V
        shape = FlagShape((0, 2), 1)
        zero_pair = FiberQuery((1, 0), MatrixGF.zeros(2, 2, 2), shape)
        assert count_fiber(zero_pair) == 1
        reg = normal_pair(bipartition((), (2,)), 2)
        assert count_fiber(FiberQuery(reg.v, reg.x, shape)) == 0

    def test_marker_zero_requires_zero_vector(self):
        shape = FlagShape((0, 1, 2), 0)
        np_ = normal_pair(bipartition((1,), (1,)), 2)
        assert count_fiber(FiberQuery(np_.v, np_.x, shape)) == 0

    def test_vector_is_reduced_mod_p(self, clean_cache):
        # v = (2,) is 0 over GF(2), so the one flag 0 < V lies in the fiber;
        # x = 2 I is 0 over GF(2), so all 3 lines of V do, though a kernel
        # computed on the unreduced entries reads 2 as a pivot
        for v, x, shape, flags in (
            ((2,), MatrixGF.zeros(1, 1, 2), FlagShape((0, 1), 0), 1),
            ((0, 0), MatrixGF(2, ((2, 0), (0, 2)), 2), FlagShape((0, 1, 2), 1), 3),
        ):
            q = FiberQuery(v, x, shape, (0,) * len(v))
            assert q.v == (0,) * len(v) and q.x.is_zero()
            assert count_fiber(q) == flags
            assert len(list(enumerate_fiber_flags(q))) == flags
            assert count_lambda_fixed(q) == flags
            assert len(list(enumerate_lambda_fixed_flags(q))) == flags
            assert count_fiber_memo(q) == flags

    def test_query_validation(self):
        with pytest.raises(ValueError):
            FiberQuery((0, 0, 0), MatrixGF.zeros(2, 2, 2), FlagShape((0, 2), 0))
        with pytest.raises(ValueError):
            FiberQuery((0, 0), MatrixGF.zeros(2, 2, 2), FlagShape((0, 3), 0))


class TestWalkerMemo:
    def test_count_fiber_matches_unmemoized_walker(self):
        for n in range(5):
            for big, small in closure_pairs(n):
                for p in (2, 3):
                    q = FiberQuery.over_orbit(small, big, p)
                    assert count_fiber(q) == unmemoized_fiber_count(q), (str(big), str(small), p)

    def test_count_lambda_fixed_matches_unmemoized_walker(self):
        pairs = [pair for n in range(4) for pair in itertools.product(bipartitions(n), repeat=2)]
        # two graded quotients of (();(2,1,1))'s pair share v and x but not
        # their weights: a memo keyed without the weights miscounts here
        pairs.append((bipartition((), (4,)), bipartition((), (2, 1, 1))))
        for big, small in pairs:
            for p in (2, 3):
                q = FiberQuery.over_orbit(small, big, p)
                assert count_lambda_fixed(q) == unmemoized_lambda_fixed_count(q), (
                    str(big), str(small), p,
                )

    def test_count_is_independent_of_the_polynomials(self, clean_cache, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the brute-force count read the polynomial path")

        for module, name in (
            (normalform, "classify_pair"),
            (fibers, "classify_pair"),
            (fibers, "_transition_row"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        nodes = Counter()
        cached_children, last_step = fibers._children, fibers._last_step

        def counting(pair, subspaces, r1):
            entry = cached_children(pair, subspaces, r1)
            nodes["walker"] += entry[0]
            return entry

        def counting_last(pair, subspaces):
            entry = last_step(pair, subspaces)
            nodes["walker"] += entry[0]
            return entry

        def counting_oracle(pair, r1):
            for item in kernel_step(pair, r1):
                nodes["oracle"] += 1
                yield item

        monkeypatch.setattr(fibers, "_children", counting)
        monkeypatch.setattr(fibers, "_last_step", counting_last)
        q = FiberQuery.over_orbit(bipartition((), (1, 1, 1, 1)), bipartition((), (2, 2)), 2)
        first = count_fiber(q)
        walked = nodes["walker"]
        # one call's memo is gone by the next call, which spends as many
        # candidates on the warm children's table
        spent = []
        assert sum(fiber_profiles(q, (), spent.append).values()) == first
        assert sum(spent) == walked > 0
        assert nodes["walker"] == 2 * walked
        # a count walk pushes nothing, so it keeps no quotient map
        assert fibers._push.cache_info().currsize == 0
        # within a call the memo does replay counts: the plain walker goes further
        dims, j = q.shape.dims, q.shape.marker
        assert walk_count(counting_oracle, zero_graded(q), dims, j) == first
        assert unmemoized_fiber_count(q) == first
        assert nodes["oracle"] > walked
        assert fiber_cache().stats == {"hits": 0, "misses": 0, "entries": 0}


def weight_filtrations(q: FiberQuery) -> tuple[SubspaceGF, ...]:
    """The subspaces V>=w of the query's weight grading, heaviest first."""
    levels = sorted(set(q.weights), reverse=True)
    return tuple(
        SubspaceGF.coordinate([c for c, w in enumerate(q.weights) if w >= lvl], q.shape.n, q.p)
        for lvl in levels
    )


def splitting(small, p: int) -> tuple[SubspaceGF, SubspaceGF]:
    dec = explicit_decomposition(normal_pair(small, p))
    return dec.v1, dec.v2


def count_walker_candidates(monkeypatch) -> Counter:
    """Counts under "yielded" the candidates of every node that the walker
    expands, one read per expanded node: of fibers._children, or of
    fibers._last_step for a node with one step left."""
    candidates = Counter()
    cached_children, last_step = fibers._children, fibers._last_step

    def counting(pair, subspaces, r1):
        entry = cached_children(pair, subspaces, r1)
        candidates["yielded"] += entry[0]
        return entry

    def counting_last(pair, subspaces):
        entry = last_step(pair, subspaces)
        candidates["yielded"] += entry[0]
        return entry

    monkeypatch.setattr(fibers, "_children", counting)
    monkeypatch.setattr(fibers, "_last_step", counting_last)
    return candidates


def record_children(monkeypatch) -> dict:
    """A dict that maps each key the walker reads from fibers._children
    to its entry."""
    cached_children = fibers._children
    entries = {}

    def recording(*key):
        entries[key] = cached_children(*key)
        return entries[key]

    monkeypatch.setattr(fibers, "_children", recording)
    return entries


class TestProfileWalker:
    """The walker's histograms equal the enumerated flags bucketed in the
    ambient space, for the subspaces that the alpha and split checks use."""

    def test_alpha_and_split_profiles_match_enumeration(self):
        for n in range(4):
            for big, small in closure_pairs(n):
                for p in (2, 3):
                    q = FiberQuery.over_orbit(small, big, p)
                    filtrations = weight_filtrations(q)
                    assert fiber_profiles(q, filtrations) == flag_histogram(
                        enumerate_fiber_flags(q), filtrations
                    ), (str(big), str(small), p)
                    assert lambda_fixed_profiles(q, filtrations) == flag_histogram(
                        enumerate_lambda_fixed_flags(q), filtrations
                    ), (str(big), str(small), p)
                    if is_distinguished(small):
                        continue
                    halves = splitting(small, p)
                    assert lambda_fixed_profiles(q, halves) == flag_histogram(
                        enumerate_lambda_fixed_flags(q), halves
                    ), (str(big), str(small), p)

    def test_alpha_pieces_are_cells_over_fixed_parts(self):
        # Bialynicki-Birula: each alpha piece is an affine bundle of one
        # rank d over its lambda-fixed part, at p = 5 as at 2 and 3
        for n in range(4):
            for big, small in closure_pairs(n):
                ranks = {}
                for p in (2, 3, 5):
                    q = FiberQuery.over_orbit(small, big, p)
                    filtrations = weight_filtrations(q)
                    pieces = fiber_profiles(q, filtrations)
                    fixed = lambda_fixed_profiles(q, filtrations)
                    assert pieces.keys() == fixed.keys(), (str(big), str(small), p)
                    for profile, count in pieces.items():
                        d = next(d for d in range(count) if p**d * fixed[profile] >= count)
                        assert p**d * fixed[profile] == count, (str(big), str(small), p)
                        ranks.setdefault(profile, set()).add(d)
                assert all(len(ds) == 1 for ds in ranks.values()), (str(big), str(small))

    def test_split_walk_keeps_exactly_the_split_profiles(self):
        # the full walk against a splitting matches the enumerated flags,
        # and the split walk, which prunes each child whose first step
        # does not sum to r_1, keeps exactly the profiles of both that sum
        # to dim W_i at every level
        compared = 0
        for n in range(5):
            for big, small in closure_pairs(n):
                if is_distinguished(small):
                    continue
                for p in (2, 3):
                    q = FiberQuery.over_orbit(small, big, p)
                    halves = splitting(small, p)
                    full = lambda_fixed_profiles(q, halves)
                    enumerated = flag_histogram(enumerate_lambda_fixed_flags(q), halves)
                    assert full == enumerated, (str(big), str(small), p)
                    split = {
                        profile: count for profile, count in full.items()
                        if all(a + b == d for (a, b), d in zip(profile, q.shape.dims[1:]))
                    }
                    assert split_profiles(q, *halves) == split, (str(big), str(small), p)
                    compared += bool(split)
        assert compared > 100

    def test_split_walk_spends_fewer_candidates(self):
        # (();(1,1,1)) under (();(3)) at p = 3: the full walk expands 40
        # candidates for 52 flags, of which the split walk keeps 12
        small, big = bipartition((), (1, 1, 1)), bipartition((), (3,))
        q = FiberQuery.over_orbit(small, big, 3)
        halves = splitting(small, 3)
        full, split = [], []
        assert sum(lambda_fixed_profiles(q, halves, full.append).values()) == 52
        assert sum(split_profiles(q, *halves, split.append).values()) == 12
        assert 0 < sum(split) < sum(full) == 40

    def test_no_subspaces_is_the_count(self):
        for n in range(5):
            for big, small in closure_pairs(n):
                q = FiberQuery.over_orbit(small, big, 2)
                count = count_fiber(q)
                rows = ((),) * (len(q.shape.dims) - 1)
                assert fiber_profiles(q, ()) == ({rows: count} if count else {})

    def test_empty_and_leaf_children_are_answered_on_entry(self, clean_cache):
        # x = 0 and v = e_1 on GF(2)^2, shape (0, 1, 2) with v in W_1: of
        # the three lines W_1 only span(e_1) holds v.  The other two leave
        # one quotient pair, with v != 0 at marker 0: one empty child of
        # multiplicity 2, which the walker enters once and answers with no
        # node spent.  Below span(e_1) the one W_2 = V is the leaf.
        q = FiberQuery((1, 0), MatrixGF.zeros(2, 2, 2), FlagShape((0, 1, 2), 1), (0, 0))
        full = SubspaceGF.full(2, 2)
        zero = GradedPair(MatrixGF.zeros(1, 1, 2), (0,), (0,))
        for walk in (fiber_profiles, lambda_fixed_profiles):
            spent = []
            assert walk(q, (full,), spent.append) == {((1,), (2,)): 1}
            assert spent == [3, 1]
            candidates, children = fibers._children(GradedPair(q.x, q.v, (0, 0)), (full,), 1)
            assert candidates == 3
            assert [(sub.v, mult) for sub, _, _, mult in children] == [((0,), 1), ((1,), 2)]
            assert children[0][0] == zero
            assert {(pushed, first) for _, pushed, first, _ in children} == {
                ((SubspaceGF.full(1, 2),), ((1,),))
            }

    def test_spends_one_node_per_expanded_candidate(self, clean_cache, monkeypatch):
        candidates = count_walker_candidates(monkeypatch)

        def counting_oracle(pair, r1):
            for item in kernel_step(pair, r1):
                candidates["yielded"] += 1
                yield item

        q = FiberQuery.over_orbit(bipartition((), (2, 1, 1)), bipartition((), (2, 2)), 2)
        filtrations = weight_filtrations(q)
        nodes = []
        hist = fiber_profiles(q, filtrations, nodes.append)
        assert sum(nodes) == candidates["yielded"] > 0
        # one spend per expanded node, of all its candidates together
        assert 0 < len(nodes) < sum(nodes)
        assert sum(hist.values()) == count_fiber(q)
        # a fresh memo on the next call spends as much again
        again = []
        assert fiber_profiles(q, filtrations, again.append) == hist
        assert again == nodes
        # memo hits expand nothing: the unmemoized walker visits more
        candidates.clear()
        walk_count(counting_oracle, zero_graded(q), q.shape.dims, q.shape.marker)
        assert candidates["yielded"] > sum(nodes)

    def test_counts_walk_as_the_empty_histogram(self, monkeypatch):
        # a count is the profile walk against no subspaces: the same
        # walker calls and the same candidates, under either grading
        tally = Counter()
        cached_children, last_step, walker = fibers._children, fibers._last_step, fibers._profiles

        def counting_children(pair, subspaces, r1):
            entry = cached_children(pair, subspaces, r1)
            tally["candidates"] += entry[0]
            return entry

        def counting_last(pair, subspaces):
            entry = last_step(pair, subspaces)
            tally["candidates"] += entry[0]
            return entry

        def counting_walker(*args):
            tally["calls"] += 1
            return walker(*args)

        monkeypatch.setattr(fibers, "_children", counting_children)
        monkeypatch.setattr(fibers, "_last_step", counting_last)
        monkeypatch.setattr(fibers, "_profiles", counting_walker)

        def walked(fn, *args) -> Counter:
            tally.clear()
            fn(*args)
            return +tally

        for n in range(4):
            for big, small in closure_pairs(n):
                q = FiberQuery.over_orbit(small, big, 2)
                for count, profiles in (
                    (count_fiber, fiber_profiles),
                    (count_lambda_fixed, lambda_fixed_profiles),
                ):
                    counted = walked(count, q)
                    assert counted == walked(profiles, q, ()), (count.__name__, str(big), str(small))
                    # the fiber is nonempty, so a fresh memo expands a candidate
                    assert counted["calls"] > 0 and (counted["candidates"] > 0 or n == 0)

    def test_every_count_runs_the_profile_walker(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("profile walker reached")

        monkeypatch.setattr(fibers, "_profiles", broken)
        q = FiberQuery.over_orbit(bipartition((), (1, 1)), bipartition((), (2,)), 2)
        for walk in (count_fiber, count_lambda_fixed):
            with pytest.raises(RuntimeError, match="profile walker reached"):
                walk(q)
        for walk in (fiber_profiles, lambda_fixed_profiles):
            with pytest.raises(RuntimeError, match="profile walker reached"):
                walk(q, ())


def pinned_walks():
    """(p, subspaces' name, walker, query, subspaces) for every closure pair
    with n <= 4 at p = 2 and 3, under both walkers, against no subspaces,
    the weight filtrations and, when small is not distinguished, its
    explicit splitting: 2,744 walks."""
    for n in range(5):
        for big, small in closure_pairs(n):
            for p in (2, 3):
                q = FiberQuery.over_orbit(small, big, p)
                sets = {"none": (), "filtrations": weight_filtrations(q)}
                if not is_distinguished(small):
                    sets["splitting"] = splitting(small, p)
                for name, subspaces in sets.items():
                    for walk in (fiber_profiles, lambda_fixed_profiles):
                        yield p, name, walk, q, subspaces


class TestChildrenTable:
    """fibers._children groups a node's candidates W_1 by the child they
    leave, and the walker weights each distinct child by its multiplicity."""

    def test_walker_traffic_is_pinned(self, clean_cache):
        # the histograms and the budget spent by the grouped walker are
        # those of the walker that visited every candidate W_1
        spent = Counter()
        digest = hashlib.sha256()
        walks = 0
        for p, name, walk, q, subspaces in pinned_walks():

            def spend(amount, key=(p, name)):
                spent[key] += amount

            hist = walk(q, subspaces, spend)
            digest.update(repr(sorted(hist.items())).encode())
            walks += 1
        assert walks == 2744
        assert spent == {
            (2, "none"): 6398, (2, "filtrations"): 6443, (2, "splitting"): 9153,
            (3, "none"): 15668, (3, "filtrations"): 15718, (3, "splitting"): 23185,
        }
        assert sum(spent.values()) == 76565
        assert digest.hexdigest() == "7201930ba78124182c1883538aee186a575580b69a8f151c56f6bc03183981b9"

    def test_children_are_the_oracle_step_grouped(self, clean_cache, monkeypatch):
        # every node that the pinned walks reach: the multiplicities sum to
        # the candidates, which the oracle step lists one by one, and each
        # distinct child is the quotient pair and pushed subspaces of as
        # many oracle candidates as its multiplicity
        reached = record_children(monkeypatch)
        for _, _, walk, q, subspaces in pinned_walks():
            walk(q, subspaces)
        assert len(reached) > 1000
        for (pair, subspaces, r1), (candidates, children) in reached.items():
            assert sum(mult for *_, mult in children) == candidates
            zero = not any(pair.weights)
            oracle = list((kernel_step if zero else graded_step)(pair, r1))
            assert len(oracle) == candidates, (pair, r1)
            if zero:
                dim_ker = pair.n - rank(pair.x)
                assert candidates == gaussian_binomial(dim_ker, r1, pair.p), (pair, r1)
            expected = Counter()
            for qm, sub in oracle:
                pushed = tuple(
                    SubspaceGF.span([reduce_apply(qm, u) for u in s.basis], qm.codim, qm.p)
                    for s in subspaces
                )
                first = (tuple(s.dim - t.dim for s, t in zip(subspaces, pushed)),)
                expected[sub, pushed, first] += 1
            assert {child[:3]: child[3] for child in children} == expected, (pair, subspaces, r1)
            assert len(children) == len(expected)

    def test_last_step_is_the_oracle_step(self, clean_cache, monkeypatch):
        # every node with one step left that the pinned walks reach: the
        # closed form has the candidates and the one-step histogram that
        # the oracle step's W_1 = V gives, and no _children entry is read
        # for it
        last_step, reached = fibers._last_step, {}
        children = record_children(monkeypatch)

        def recording(pair, subspaces):
            reached[pair, subspaces] = last_step(pair, subspaces)
            return reached[pair, subspaces]

        monkeypatch.setattr(fibers, "_last_step", recording)
        for _, _, walk, q, subspaces in pinned_walks():
            walk(q, subspaces)
        assert len(reached) > 100
        assert sum(candidates for candidates, _ in reached.values()) > 10
        for (pair, subspaces), (candidates, hist) in reached.items():
            assert (pair, subspaces, pair.n) not in children
            oracle = list((graded_step if any(pair.weights) else kernel_step)(pair, pair.n))
            assert candidates == len(oracle) <= 1, pair
            expected = Counter()
            for qm, _ in oracle:
                pushed = [
                    SubspaceGF.span([reduce_apply(qm, u) for u in s.basis], qm.codim, qm.p)
                    for s in subspaces
                ]
                expected[(tuple(s.dim - t.dim for s, t in zip(subspaces, pushed)),)] += 1
            assert hist == expected, (pair, subspaces)


def assert_step_matches(oracle_step, reached: set) -> None:
    """fibers._step yields what oracle_step yields, in order, on every pair
    reached from the given ones, each added to reached; a second call
    yields it again, and equal quotient pairs are one object."""
    frontier = list(reached)
    while frontier:
        pair = frontier.pop()
        for r1 in range(1, len(pair.v) + 1):
            step = list(fibers._step(pair, r1))
            assert step == list(oracle_step(pair, r1)), (pair, r1)
            # each call is a fresh generator, whose pairs are the interned ones
            again = list(fibers._step(pair, r1))
            assert again == step
            assert all(a is b for (_, a), (_, b) in zip(again, step))
            shared = {}
            for _, sub in step:
                assert shared.setdefault(sub, sub) is sub, (pair, r1, sub)
                if sub not in reached:
                    reached.add(sub)
                    frontier.append(sub)


class TestProcessTables:
    """_kernel_blocks, _push and _children keep exact GF(p) objects for
    the whole process; the counts built from them stay per call."""

    def test_kernel_step_matches_generator_oracle(self):
        # under the zero grading the one step is the ungraded kernel step
        reached = set()
        for n in range(5):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    reached.add(GradedPair(np_.x, np_.v, (0,) * n))
        assert_step_matches(kernel_step, reached)
        assert len(reached) > 200

    def test_graded_step_matches_generator_oracle(self):
        reached = set()
        for n in range(5):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    reached.add(GradedPair(np_.x, np_.v, np_.weights))
        assert_step_matches(graded_step, reached)
        assert len(reached) > 200

    def test_kernel_step_shares_equal_quotients(self, clean_cache):
        # the four lines of ker x at the zero pair of GF(3)^2 leave four
        # quotients (0, 0): one object, one child of multiplicity four
        np_ = normal_pair(bipartition((), (1, 1)), 3)
        pair = GradedPair(np_.x, np_.v, (0, 0))
        step = list(fibers._step(pair, 1))
        assert len(step) == 4
        assert len({id(sub) for _, sub in step}) == 1
        candidates, ((sub, pushed, first, mult),) = fibers._children(pair, (), 1)
        assert (candidates, pushed, first, mult) == (4, (), ((),), 4)
        assert sub is step[0][1]
        # against a line S the line W_1 = S leaves a child of its own, but
        # the quotient pair of both children is the same object
        line = SubspaceGF.coordinate([0], 2, 3)
        candidates, children = fibers._children(pair, (line,), 1)
        assert candidates == 4
        assert sorted((first, mult) for _, _, first, mult in children) == [(((0,),), 3), (((1,),), 1)]
        assert all(child[0] is sub for child in children)

    def test_steps_share_equal_quotients_across_steps(self, clean_cache):
        # a line of the zero pair on GF(3)^2 and a plane of the zero pair
        # on GF(3)^3 both leave the zero pair on GF(3)^1: one object
        entries = [
            fibers._children(GradedPair(np_.x, np_.v, (0,) * np_.n), (), r1)[1]
            for np_, r1 in (
                (normal_pair(bipartition((), (1, 1)), 3), 1),
                (normal_pair(bipartition((), (1, 1, 1)), 3), 2),
            )
        ]
        ((first, *_),), ((second, *_),) = entries
        assert first is second
        assert first == GradedPair(MatrixGF.zeros(1, 1, 3), (0,), (0,))
        # and so do nodes under the normal grading, across their own keys
        graded = [
            fibers._children(normal_pair(bipartition((), (1,) * n), 3).pair, (), n - 1)[1]
            for n in (2, 3)
        ]
        assert len({id(sub) for children in graded for sub, *_ in children}) == 1
        assert fibers._interned
        fiber_cache().clear()
        assert not fibers._interned

    def test_over_orbit_shares_one_normal_pair(self, clean_cache):
        small = bipartition((1,), (1, 1))
        bigs = [big for big, s in closure_pairs(3) if s == small]
        assert len(bigs) > 1
        for p in (2, 3):
            np_ = normalform.orbit_pair(small, p)
            assert np_ == normal_pair(small, p)
            for big in bigs:
                q = FiberQuery.over_orbit(small, big, p)
                assert q.x is np_.x and q.weights is np_.weights and q.v == np_.v
                assert q.shape == flag_shape(big)
            assert normalform.orbit_pair(small, p) is np_
            # the split check's set-up reads the same table
            if not is_distinguished(small):
                assert normalform.split_factors(small, p).normal is np_
        assert normalform.orbit_pair(small, 2) != normalform.orbit_pair(small, 3)
        # normal_pair itself builds a fresh pair on every call: a table
        # there would keep every pair that a caller builds only once
        assert not hasattr(normalform.normal_pair, "cache_info")
        assert normal_pair(small, 3) is not normal_pair(small, 3)

    def test_kernel_step_reads_each_kernel_once(self, clean_cache, monkeypatch):
        calls = Counter()

        def counting(x, _original=normalform.kernel):
            calls[x] += 1
            return _original(x)

        monkeypatch.setattr(normalform, "kernel", counting)
        np_ = normal_pair(bipartition((1,), (2, 1)), 3)
        zeros = (0,) * np_.n
        line = SubspaceGF.coordinate([0], np_.n, 3)
        for v in (np_.v, zeros):
            for subspaces in ((), (line,)):
                for r1 in (1, 2, 3):
                    fibers._children(GradedPair(np_.x, v, zeros), subspaces, r1)
        assert fibers._children.cache_info().currsize == 12
        # the zero grading has one block, whose matrix is x itself
        assert calls == Counter({np_.x: 1})
        blocks = fibers._kernel_blocks(np_.x, zeros)
        assert blocks == ((0, tuple(range(np_.n)), kernel(np_.x)),)
        assert fibers._kernel_blocks(MatrixGF.from_rows(np_.x.rows, 3), zeros) is blocks

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_push_is_the_span_of_the_images(self, p):
        rng = random.Random(p)
        for _ in range(150):
            n = rng.randrange(1, 7)

            def random_subspace():
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
                return SubspaceGF.span(rows, n, p)

            w, s = random_subspace(), random_subspace()
            qm = quotient_map(w)
            pushed = fibers._push(qm, s)
            assert pushed == SubspaceGF.span([reduce_apply(qm, u) for u in s.basis], qm.codim, p)
            assert pushed.dim == s.sum(w).dim - w.dim
            assert fibers._push(qm, s) == pushed

    def test_kernel_counts_stay_per_call_on_warm_tables(self, clean_cache, monkeypatch):
        cached_children = fibers._children
        candidates = count_walker_candidates(monkeypatch)
        q = FiberQuery.over_orbit(bipartition((), (2, 1, 1)), bipartition((4,), ()), 3)
        filtrations = weight_filtrations(q)
        cold = []
        hist = fiber_profiles(q, filtrations, cold.append)
        assert sum(cold) == candidates["yielded"] > 0
        assert sum(hist.values()) == unmemoized_fiber_count(q) > 0
        assert len(hist) > 1
        nodes = cached_children.cache_info()
        # the second call finds every node's children in the table, yet
        # spends as many nodes: the histogram memo is its own
        warm = []
        assert fiber_profiles(q, filtrations, warm.append) == hist
        assert warm == cold
        assert cached_children.cache_info().misses == nodes.misses
        assert cached_children.cache_info().hits > nodes.hits

    def test_counts_stay_per_call_on_warm_tables(self, monkeypatch):
        node_children = fibers._children
        candidates = count_walker_candidates(monkeypatch)
        q = FiberQuery.over_orbit(bipartition((), (2, 1, 1)), bipartition((4,), ()), 3)
        filtrations = weight_filtrations(q)
        fibers._push.cache_clear()
        node_children.cache_clear()
        cold = []
        hist = lambda_fixed_profiles(q, filtrations, cold.append)
        assert sum(cold) == candidates["yielded"] > 0
        assert sum(hist.values()) == unmemoized_lambda_fixed_count(q) > 0
        assert len(hist) > 1
        pushes, nodes = fibers._push.cache_info(), node_children.cache_info()
        assert pushes.misses > 0 and nodes.misses > 0
        # the second call finds every node's children in the table, so it
        # pushes nothing, yet spends as many nodes: the histogram memo is
        # its own
        warm = []
        assert lambda_fixed_profiles(q, filtrations, warm.append) == hist
        assert warm == cold
        assert node_children.cache_info().misses == nodes.misses
        assert node_children.cache_info().hits > nodes.hits
        assert fibers._push.cache_info() == pushes
        # count_lambda_fixed expands as many candidates on every call
        candidates.clear()
        first = count_lambda_fixed(q)
        walked, counted = candidates["yielded"], node_children.cache_info()
        assert count_lambda_fixed(q) == first == sum(hist.values())
        assert candidates["yielded"] == 2 * walked > 0
        assert node_children.cache_info().misses == counted.misses
        # and pushes nothing: its nodes carry no subspaces
        assert fibers._push.cache_info() == pushes

    def test_only_the_push_table_keeps_quotient_maps(self, clean_cache):
        # the alpha and split walks build a quotient map for every
        # candidate W_1, and no table but _push keeps one
        for n in range(5):
            for big, small in closure_pairs(n):
                assert check_alpha_partition(big, small).passed, (str(big), str(small))
                if not is_distinguished(small):
                    assert check_split_product(small, big, 2).passed, (str(big), str(small))
        assert fibers._push.cache_info().currsize > 0
        fibers._push.cache_clear()
        gc.collect()
        assert not any(isinstance(obj, gflinalg.QuotientMap) for obj in gc.get_objects())


class TestSpringerBenchmarks:
    def test_full_flag_over_zero(self):
        big = bipartition((), (3,))
        small = bipartition((), (1, 1, 1))
        counts = {
            p: count_fiber(FiberQuery.over_orbit(small, big, p)) for p in (2, 3, 5, 7)
        }
        assert counts[2] == 21 and counts[3] == 52
        poly = interpolate_qpoly(counts, 3)
        assert poly.coeffs == (1, 2, 2, 1)
        assert str(poly) == "q^3+2q^2+2q+1"

    def test_full_flag_n2(self):
        big = bipartition((), (2,))
        small = bipartition((), (1, 1))
        counts = {p: count_fiber(FiberQuery.over_orbit(small, big, p)) for p in (2, 3)}
        assert counts == {2: 3, 3: 4}
        assert str(interpolate_qpoly(counts, 1)) == "q+1"

    def test_subregular(self):
        big = bipartition((), (3,))
        small = bipartition((), (2, 1))
        counts = {
            p: count_fiber(FiberQuery.over_orbit(small, big, p)) for p in (2, 3, 5, 7)
        }
        assert counts[2] == 5 and counts[3] == 7
        assert str(interpolate_qpoly(counts, 3)) == "2q+1"


class TestMemo:
    def test_agrees_with_plain_count(self, clean_cache):
        memo = {}
        for p in (2, 3):
            for n in range(4):
                for big, small in itertools.product(bipartitions(n), repeat=2):
                    q = FiberQuery.over_orbit(small, big, p)
                    count = count_fiber(q)
                    assert count_fiber_memo(q) == count
                    assert count_by_transitions(q, memo) == count

    def test_cache_statistics(self, clean_cache):
        cache = fiber_cache()
        q = FiberQuery.over_orbit(
            bipartition((), (1, 1, 1)), bipartition((), (3,)), 2
        )
        first = count_fiber_memo(q)
        misses = cache.misses
        assert misses > 0
        again = count_fiber_memo(q)
        assert again == first
        assert cache.misses == misses  # fully served from cache
        assert cache.hits > 0
        # stats also counts the polynomial table, base cases included:
        # the figures demo 02 prints after the 242 polynomials with n <= 4
        cache.clear()
        for n in range(5):
            for big, small in closure_pairs(n):
                fiber_polynomial(big, small)
        assert cache.stats == {"hits": 388, "misses": 286, "entries": 286}

    def test_kernel_step_table_size(self, clean_cache, monkeypatch):
        # the 242 certificates with n <= 4 count their fibers at p = 2 on
        # 1,238 nodes under the zero grading, of which 165 are distinct
        # (pair, (), r1) keys; their 472 candidates leave 254 distinct
        # children.  874 nodes on 125 keys read _children, on the kernels
        # of 17 distinct matrices; the other 364 nodes, on 40 keys, have
        # one step left and are answered by _last_step in closed form,
        # 16 keys with x = 0 and so one candidate W_1 = V and one child.
        # A count walk pushes nothing, so it keeps no quotient map
        cached_children, last_step = fibers._children, fibers._last_step
        entries = record_children(monkeypatch)
        last, last_calls = {}, Counter()

        def recording_last(*key):
            last_calls["calls"] += 1
            last[key] = last_step(*key)
            return last[key]

        monkeypatch.setattr(fibers, "_last_step", recording_last)
        for n in range(5):
            for big, small in closure_pairs(n):
                assert check_polynomial_count(big, small).passed, (str(big), str(small))
        info = cached_children.cache_info()
        assert (info.misses, info.hits, info.currsize) == (125, 749, 125)
        assert (len(last), last_calls["calls"]) == (40, 364)
        assert info.misses + len(last) == 165
        assert info.misses + info.hits + last_calls["calls"] == 1238
        assert sum(candidates for candidates, _ in entries.values()) == 456
        assert sum(len(children) for _, children in entries.values()) == 238
        assert [candidates for candidates, _ in last.values()].count(1) == 16
        assert all(hist == ({((),): 1} if candidates else {}) for candidates, hist in last.values())
        assert all(r1 < pair.n for pair, _, r1 in entries)
        assert all(pair.x.is_zero() == bool(candidates) for (pair, _), (candidates, _) in last.items())
        assert fibers._push.cache_info().currsize == 0
        assert fibers._kernel_blocks.cache_info().currsize == 17

    def test_persistence_roundtrip(self, tmp_path, clean_cache):
        cache = fiber_cache()
        q = FiberQuery.over_orbit(bipartition((), (2, 1)), bipartition((), (3,)), 3)
        value = count_fiber_memo(q)
        path = tmp_path / "counts.jsonl"
        cache.save(path)
        size = len(cache)
        cache.clear()
        cache.load(path)
        assert len(cache) == size
        assert count_fiber_memo(q) == value
        # nothing was recomputed
        assert cache.stats["misses"] == 0

    def test_clear_empties_process_tables(self, clean_cache):
        small = bipartition((), (2, 1, 1))
        q = FiberQuery.over_orbit(small, bipartition((4,), ()), 3)
        lambda_fixed_profiles(q, weight_filtrations(q))
        count_fiber(q)
        fiber_polynomial(bipartition((4,), ()), small)
        normalform.split_factors(small, 3)
        normalform.classify_pair(q.v, q.x)  # fills classification's layout table
        tables = {
            "orbit_pair": normalform.orbit_pair,
            "_kernel_blocks": fibers._kernel_blocks,
            "_push": fibers._push,
            "_children": fibers._children,
            "_symbolic_row": fibers._symbolic_row,
            "_poly_orbit": fibers._poly_orbit,
            "split_factors": normalform.split_factors,
        }
        # every lru_cache table that fibers reaches, but the pure
        # arithmetic and combinatorics ones, which clear() keeps
        kept = {
            "q_binomial": q_binomial,
            "q_power": q_power,
            "_schubert_cells": fibers._schubert_cells,
            "_line_ranks": fibers._line_ranks,
            "_row_orbit": fibers._row_orbit,
        }
        cached = {name for name, f in vars(fibers).items() if hasattr(f, "cache_clear")}
        assert cached - {"flag_shape"} == set(tables) | set(kept)
        assert all(table.cache_info().currsize > 0 for table in tables.values())
        assert fibers._interned
        fiber_cache().clear()
        assert {name: table.cache_info().currsize for name, table in tables.items()} == dict.fromkeys(tables, 0)
        assert not fibers._interned
        assert all(table.cache_info().currsize > 0 for table in kept.values())
        assert gflinalg._packed_layout.cache_info().currsize > 0

    def test_clear_empties_symbolic_tables(self, monkeypatch, clean_cache):
        cache = fiber_cache()
        big, small = bipartition((1,), (2,)), bipartition((), (1, 1, 1))
        q = FiberQuery.over_orbit(small, big, 2)
        poly = fiber_polynomial(big, small)
        value = count_fiber_memo(q)
        assert value == poly.evaluate(2)
        misses = cache.stats["misses"]
        cache.clear()
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0}
        transition_row = fibers._transition_row
        rows = []

        def counting(b, r):
            rows.append((b, r))
            return transition_row(b, r)

        monkeypatch.setattr(fibers, "_transition_row", counting)
        # the count misses again and is rebuilt from the polynomial
        assert count_fiber_memo(q) == value
        assert fiber_polynomial(big, small) == poly
        assert cache.stats["misses"] == misses
        assert rows

    def test_failed_save_keeps_old_file(self, tmp_path, clean_cache):
        cache = fiber_cache()
        q = FiberQuery.over_orbit(bipartition((), (2, 1)), bipartition((), (3,)), 3)
        value = count_fiber_memo(q)
        path = tmp_path / "counts.jsonl"
        cache.save(path)
        before = path.read_text()
        # a count json cannot serialize, sorted before the good records
        cache.put(((), (), (0,), 0, 3), object())
        with pytest.raises(TypeError):
            cache.save(path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]
        size = len(cache)
        cache.clear()
        cache.load(path)
        assert len(cache) == size - 1
        assert count_fiber_memo(q) == value
        assert cache.stats["misses"] == 0

    def test_bad_cache_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cache_format": 99}\n')
        with pytest.raises(ValueError):
            FiberCache().load(path)


def invert(g: MatrixGF) -> MatrixGF:
    n, p = g.nrows, g.p
    aug = MatrixGF.from_rows(
        [list(g.rows[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)], p
    )
    return MatrixGF.from_rows([row[n:] for row in rref(aug).rows], p)


class TestEquivariance:
    def test_permuting_jordan_strings(self):
        b = bipartition((2, 1), ())
        np_ = normal_pair(b, 2)
        shape = flag_shape(bipartition((), (1, 1, 1)))
        base = count_fiber(FiberQuery(np_.v, np_.x, shape))
        # swap the two strings: coordinates (0,1),(2) -> (2),(0,1)
        perm = (2, 0, 1)
        pmat = MatrixGF.from_rows(
            [[1 if c == perm[r] else 0 for c in range(3)] for r in range(3)], 2
        )
        v2 = pmat.matvec(np_.v)
        x2 = pmat @ np_.x @ invert(pmat)
        assert count_fiber(FiberQuery(v2, x2, shape)) == base

    def test_random_conjugation(self, clean_cache):
        rng = random.Random(17)
        for n in (3, 4):
            for b in bipartitions(n):
                np_ = normal_pair(b, 2)
                shape = flag_shape(b)
                base = count_fiber(FiberQuery.of(np_, shape))
                trials = 0
                while trials < 3:
                    g = MatrixGF.from_rows(
                        [[rng.randrange(2) for _ in range(n)] for _ in range(n)], 2
                    )
                    if rank(g) < n:
                        continue
                    trials += 1
                    v2 = g.matvec(np_.v)
                    x2 = g @ np_.x @ invert(g)
                    conjugated = FiberQuery(v2, x2, shape)
                    assert count_fiber(conjugated) == base
                    assert count_fiber_memo(conjugated) == base


class TestLambdaFixed:
    def test_regular_pairs_give_at_most_one(self):
        for n in range(1, 5):
            np_ = normal_pair(bipartition((), (n,)), 2)
            for dims in itertools.chain.from_iterable(
                itertools.combinations(range(1, n), m) for m in range(n)
            ):
                shape = FlagShape((0,) + dims + (n,), 0)
                assert count_lambda_fixed(FiberQuery.of(np_, shape)) in (0, 1)

    def test_bounded_by_total(self):
        for n in range(4):
            for big, small in itertools.product(bipartitions(n), repeat=2):
                q = FiberQuery.over_orbit(small, big, 2)
                assert count_lambda_fixed(q) <= count_fiber(q)

    def test_single_weight_pair_fixes_everything(self):
        # all basis vectors of (0, 0) have equal weight, so every flag is graded
        small = bipartition((), (1, 1, 1))
        big = bipartition((), (3,))
        for p in (2, 3):
            q = FiberQuery.over_orbit(small, big, p)
            assert count_lambda_fixed(q) == count_fiber(q)

    def test_needs_weights(self):
        q = FiberQuery((0, 0), MatrixGF.zeros(2, 2, 2), FlagShape((0, 2), 0))
        with pytest.raises(ValueError):
            count_lambda_fixed(q)

    def test_list_weights_become_an_int_tuple(self):
        # list weights become an int tuple, which the step table hashes
        q = FiberQuery([1, 0], MatrixGF.zeros(2, 2, 2), FlagShape((0, 1, 2), 1), [0, 0])
        assert q.v == (1, 0) and q.weights == (0, 0) and type(q.weights) is tuple
        assert count_fiber(q) == count_lambda_fixed(q) == 1
        assert len(list(enumerate_lambda_fixed_flags(q))) == 1
        assert {q: 1}[FiberQuery((1, 0), q.x, q.shape, (0, 0))] == 1

    @pytest.mark.parametrize("weights", [(0.0, 0.5), (0, 1.0), ("0", "1")])
    def test_non_integer_weights_raise(self, weights):
        # weights are taken by operator.index, like a Partition's parts
        with pytest.raises(TypeError):
            FiberQuery((0, 0), MatrixGF.zeros(2, 2, 2), FlagShape((0, 1, 2), 0), weights)

    @pytest.mark.parametrize("v", [(0.5, 0), (1.0, 0), (0, 0.0), ("1", 0)])
    def test_non_integer_v_raises(self, v):
        # v is taken by operator.index too: (0.5, 0) was counted 1, and
        # (1.0, 0) was counted by count_fiber but not by count_fiber_memo
        with pytest.raises(TypeError):
            FiberQuery(v, MatrixGF.zeros(2, 2, 2), FlagShape((0, 1, 2), 1))

    def test_list_v_becomes_an_int_tuple(self):
        q = FiberQuery([True, 3], MatrixGF.zeros(2, 2, 2), FlagShape((0, 1, 2), 1))
        assert q.v == (1, 1) and type(q.v) is tuple
        assert all(type(a) is int for a in q.v)
        assert count_fiber(q) == count_fiber_memo(q) == 1

    def test_any_grading_matches_graded_flags(self):
        # the walk asks nothing of how x moves weights: under the zero
        # grading x keeps them, and under K w + i, i counted only on the
        # rows of beta below alpha, x raises them by K
        K = 100
        differs = 0
        for n in range(5):
            for big, small in closure_pairs(n):
                np_ = normal_pair(small, 2)
                shape = flag_shape(big)
                torus = tuple(
                    K * w + (i if i > small.first.length else 0)
                    for w, (i, _) in zip(np_.weights, np_.basis_labels)
                )
                for weights in ((0,) * n, torus):
                    q = FiberQuery(np_.v, np_.x, shape, weights)
                    assert count_lambda_fixed(q) == graded_flag_count(q, weights), (
                        str(big), str(small), weights,
                    )
                zero = FiberQuery(np_.v, np_.x, shape, (0,) * n)
                assert count_lambda_fixed(zero) == count_fiber(zero)
                differs += count_lambda_fixed(FiberQuery(np_.v, np_.x, shape, torus)) != (
                    count_lambda_fixed(FiberQuery.of(np_, shape))
                )
        # the extra torus leaves fewer fixed flags than lambda on some pairs
        assert differs > 50


class TestInterpolation:
    def test_line(self):
        assert interpolate_qpoly({2: 3, 3: 4, 5: 6, 7: 8}, 3).coeffs == (1, 1)

    def test_constant(self):
        assert interpolate_qpoly({2: 1, 3: 1, 5: 1}, 2).coeffs == (1,)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            interpolate_qpoly({2: 1, 3: 2}, 2)

    def test_non_integral_rejected(self):
        with pytest.raises(InterpolationError):
            interpolate_qpoly({2: 1, 3: 2, 5: 5}, 2)

    def test_degree_overflow_rejected(self):
        with pytest.raises(InterpolationError):
            interpolate_qpoly({2: 4, 3: 9, 5: 25, 7: 49}, 1)

    def test_polynomial_display(self):
        assert str(QPolynomial(())) == "0"
        assert str(QPolynomial((1,))) == "1"
        assert str(QPolynomial((0, 1))) == "q"
        assert str(QPolynomial((1, 2))) == "2q+1"
        assert str(QPolynomial((0, -1, 1))) == "q^2-q"
        assert QPolynomial((1, 2, 2, 1)).evaluate(3) == 52

    def test_trailing_zeros_stripped(self):
        p = QPolynomial((1, 1, 0, 0))
        assert p.coeffs == (1, 1)
        assert p.degree == 1

    @pytest.mark.parametrize("coeffs", [(Fraction(1, 2),), (1.5, 2), ("3",), (2.0,), (Fraction(3),)])
    def test_non_integer_coefficients_raise(self, coeffs):
        # int() would make the first the zero polynomial, the second 2q+1
        # and parse the third
        with pytest.raises(TypeError):
            QPolynomial(coeffs)

    def test_integer_like_coefficients_become_ints(self):
        p = QPolynomial((True, 3, 0))
        assert p.coeffs == (1, 3) and all(type(c) is int for c in p.coeffs)


class TestDimensionBound:
    def test_examples(self):
        assert fiber_dimension_bound(FlagShape((0, 1, 2, 3), 0)) == 3
        assert fiber_dimension_bound(FlagShape((0, 5), 1)) == 0
        assert fiber_dimension_bound(FlagShape((0, 1, 2, 5, 7, 9, 10), 3)) == 40

    def test_schedule(self):
        sched = prime_schedule(3)
        assert sched == (2, 3, 5, 7)
        assert held_out_prime(sched) == 11
        assert next_prime_after(13) == 17


class TestOrbitDimension:
    def test_examples(self):
        assert orbit_dimension(bipartition((), (1, 1))) == 0
        assert orbit_dimension(bipartition((1,), ())) == 1
        assert orbit_dimension(bipartition((), (2,))) == 2

    def test_monotone_under_closure(self):
        for n in range(5):
            for big, small in closure_pairs(n):
                if big != small:
                    assert orbit_dimension(big) > orbit_dimension(small)

    def test_closed_form_matches_stabilizer_rank(self):
        for n in range(7):
            for b in bipartitions(n):
                assert orbit_dimension(b) == stabilizer_orbit_dimension(b), b


class TestTransitionClassification:
    def test_kernel_step_quotients_match_centralizer_oracle(self):
        # exactly the pairs the transition table classifies
        checked = 0
        for n in range(5):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    pair = GradedPair(np_.x, np_.v, (0,) * n)
                    for r1 in range(1, n + 1):
                        subs = {sub for _, sub in fibers._step(pair, r1)}
                        for sub in subs:
                            assert classify_pair(sub.v, sub.x) == classify_by_centralizer(
                                sub.v, sub.x
                            ), (b, r1, p, sub)
                        checked += len(subs)
        assert checked > 300  # 363 distinct quotient pairs


class TestClosure:
    def test_reflexive(self):
        for n in range(4):
            for b in bipartitions(n):
                assert closure_contains(b, b)

    def test_vector_obstruction(self):
        assert not closure_contains(bipartition((), (2,)), bipartition((1,), (1,)))

    def test_nilpotent_degeneration(self):
        assert closure_contains(bipartition((), (2,)), bipartition((), (1, 1)))

    def test_n1_comparable(self):
        assert closure_contains(bipartition((1,), ()), bipartition((), (1,)))
        assert not closure_contains(bipartition((), (1,)), bipartition((1,), ()))

    def test_size_mismatch(self):
        for decide in (closure_contains, fiber_polynomial):
            with pytest.raises(ValueError, match="equal total size"):
                decide(bipartition((), (2,)), bipartition((), (1,)))

    def test_closed_form_matches_nonempty_fibers(self):
        memo = {}
        for p in (2, 3):
            for n in range(6):
                for big, small in itertools.product(bipartitions(n), repeat=2):
                    assert closure_contains(big, small) == closure_by_count(
                        big, small, p, memo
                    ), (str(big), str(small), p)

    def test_pair_counts(self):
        assert sum(len(closure_pairs(n)) for n in range(5)) == 242
        assert len(closure_pairs(5)) == 533


class TestHeldOutConsistency:
    def test_interpolation_predicts_fresh_prime(self, clean_cache):
        # the fiber-level sampling oracle: counts at the schedule fit a
        # polynomial that predicts the held-out prime, and that polynomial
        # is the one assembled from the symbolic transition table; the
        # counts come from the numeric recursion, not from that polynomial
        memo = {}
        for n in range(4):
            for big, small in closure_pairs(n):
                shape = flag_shape(big)
                bound = fiber_dimension_bound(shape)
                sched = prime_schedule(bound)
                counts = {
                    p: count_by_transitions(FiberQuery.over_orbit(small, big, p), memo)
                    for p in sched
                }
                poly = interpolate_qpoly(counts, bound)
                extra = held_out_prime(sched)
                fresh = count_by_transitions(FiberQuery.over_orbit(small, big, extra), memo)
                assert poly.evaluate(extra) == fresh
                assert fiber_polynomial(big, small) == poly, (str(big), str(small))


coefficients = st.lists(st.integers(-4, 4), max_size=6)


class TestQPolynomialArithmetic:
    """+, - and * against the dense oracle: every result trimmed, int-typed,
    and equal and hash-equal to the constructor's polynomial."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(coefficients, coefficients)
    @example([-1, 1], [1, -1])
    @example([1, -1], [1, -1])
    @example([], [3, 0, -2])
    @example([0, 0, 5, 0], [])
    @example([2, 0, -7], [0, 0, -7])
    def test_matches_dense_oracle(self, a, b):
        pa, pb = QPolynomial(tuple(a)), QPolynomial(tuple(b))
        for op, oracle in ((operator.add, dense_add), (operator.sub, dense_sub), (operator.mul, dense_mul)):
            got = op(pa, pb)
            expected = QPolynomial(tuple(oracle(a, b)))
            assert got == expected and hash(got) == hash(expected), (op, a, b)
            assert type(got.coeffs) is tuple and all(type(c) is int for c in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0
            for q in (2, 3, 5):
                assert got.evaluate(q) == op(pa.evaluate(q), pb.evaluate(q))

    def test_cancellation_leaves_the_zero_polynomial(self):
        q_minus_one = QPolynomial((-1, 1))
        assert (q_minus_one + QPolynomial((1, -1))).coeffs == ()
        assert (q_minus_one - q_minus_one) == QPolynomial(()) == fibers.ZERO
        assert (q_power(3) - QPolynomial((0, 0, 0, 1))).is_zero()
        assert (q_power(2) + q_minus_one - q_power(2)).coeffs == (-1, 1)

    def test_q_power_is_a_table(self):
        assert q_power(4) is q_power(4)
        assert q_power(4).coeffs == (0, 0, 0, 0, 1)
        assert q_power(0) == fibers.ONE


class TestSymbolicTable:
    def test_polynomial_arithmetic(self):
        a, b = QPolynomial((1, 1)), QPolynomial((0, 2, 1))
        assert (a + b).coeffs == (1, 3, 1)
        assert (a * b).coeffs == (0, 2, 3, 1)
        assert (a * QPolynomial(())).is_zero()
        assert (b + QPolynomial((0, -2, -1))).is_zero()

    def test_q_binomial_matches_gaussian_binomial(self):
        assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        for m in range(7):
            for k in range(-1, m + 2):
                for p in (2, 3):
                    assert q_binomial(m, k).evaluate(p) == gaussian_binomial(m, k, p)

    def test_closed_form_rows_match_enumeration(self, clean_cache):
        # every row with n <= 5 at p = 2 and 3, and with n = 6 at p = 2
        checked = 0
        for n in range(1, 7):
            for b in bipartitions(n):
                for r1 in range(1, b.row_count + 1):
                    row = fibers._symbolic_row(b, r1)
                    for p in (2, 3) if n <= 5 else (2,):
                        evaluated = {b2: e.evaluate(p) for b2, e in row}
                        assert evaluated == dict(transitions(b, r1, p)), (str(b), r1, p)
                    checked += 1
        assert checked == 342

    def test_cached_rows_are_tuples_no_caller_can_change(self, clean_cache):
        # a row is one shared table entry: editing what a caller got must
        # not change a later polynomial
        big, small = bipartition((3,), ()), bipartition((), (2, 1))
        assert fiber_polynomial(big, small) == QPolynomial((1, 2))
        row = fibers._symbolic_row(small, flag_shape(big).dims[1])  # the row it read
        assert isinstance(row, tuple) and all(isinstance(entry, tuple) for entry in row)
        with pytest.raises(TypeError):
            row[0] = (row[0][0], row[0][1] + row[0][1])
        fibers._poly_orbit.cache_clear()
        assert fiber_polynomial(big, small) == QPolynomial((1, 2))

    def test_hall_and_x_zero_rows(self):
        # v = 0 rows are Macdonald's Hall polynomials, x = 0 rows two q-binomials
        checked = 0
        for n in range(1, 8):
            for b in bipartitions(n):
                for r1 in range(1, b.row_count + 1):
                    if not b.first.parts:
                        expected = hall_row(b.second, r1)
                    elif b.row_length(1) == 1:
                        expected = x_zero_row(n, r1)
                    else:
                        continue
                    assert fibers._transition_row(b, r1) == expected, (str(b), r1)
                    checked += 1
        assert checked == 159

    def test_other_rows_match_interpolation(self):
        # rows with v != 0 and x != 0, interpolated at primes and held out
        checked = 0
        for n in range(1, 5):
            for b in bipartitions(n):
                if not b.first.parts or b.row_length(1) == 1:
                    continue
                for r1 in range(1, b.row_count + 1):
                    assert fibers._transition_row(b, r1) == interpolated_row(b, r1), (str(b), r1)
                    checked += 1
        assert checked == 38

    def test_polynomials_read_no_prime_field(self, monkeypatch, clean_cache):
        # the polynomial path enumerates no subspace, classifies no pair and
        # interpolates nothing
        calls = Counter()
        modules = (gflinalg, normalform, fibers)
        for module, name in (
            (gflinalg, "enumerate_subspaces"),
            (normalform, "classify_pair"),
            (fibers, "interpolate_qpoly"),
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for holder in modules:
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, counting)
        for n in range(6):
            for big, small in closure_pairs(n):
                fiber_polynomial(big, small)
        assert calls == Counter()


ROW_TABLES = ("_schubert_cells", "_line_ranks", "_row_orbit")


class TestRowTables:
    """The transition rows read their cells, line ranks and orbits off
    process tables over tuples, which FiberCache.clear() keeps."""

    PAIRS = [pair for n in range(6) for pair in closure_pairs(n)]

    def sweep(self) -> list:
        fiber_cache().clear()  # the rows and polynomials, not the row tables
        return [fiber_polynomial(big, small) for big, small in self.PAIRS]

    def test_cold_and_warm_tables_give_the_same_polynomials(self, monkeypatch, clean_cache):
        tables = {name: getattr(fibers, name) for name in ROW_TABLES}
        for name, table in tables.items():
            monkeypatch.setattr(fibers, name, table.__wrapped__)
        untabled = self.sweep()
        monkeypatch.undo()
        for table in tables.values():
            table.cache_clear()
        cold = self.sweep()
        infos = {name: table.cache_info() for name, table in tables.items()}
        assert all(info.currsize > 0 and info.hits > 0 for info in infos.values())
        warm = self.sweep()
        assert warm == cold == untabled
        # the warm sweep built no entry: it read every part off the tables
        assert {name: table.cache_info().misses for name, table in tables.items()} == {
            name: info.misses for name, info in infos.items()
        }

    def test_cached_values_are_immutable(self, monkeypatch, clean_cache):
        returned = {name: [] for name in ROW_TABLES}
        for name in ROW_TABLES:
            def recording(*args, _table=getattr(fibers, name), _seen=returned[name]):
                value = _table(*args)
                assert _table(*args) is value
                _seen.append(value)
                return value

            monkeypatch.setattr(fibers, name, recording)
        self.sweep()
        assert all(returned.values())
        assert all(type(cells) is tuple for cells in returned["_schubert_cells"])
        assert all(type(paths) is tuple for paths in returned["_line_ranks"])
        assert all(type(b) is Bipartition for b in returned["_row_orbit"])
        # a value that holds a list or a dict anywhere has no hash
        for values in returned.values():
            for value in values:
                hash(value)


class TestFlagEnumeration:
    def test_enumeration_matches_count(self):
        for n in range(4):
            for big, small in itertools.product(bipartitions(n), repeat=2):
                q = FiberQuery.over_orbit(small, big, 2)
                flags = list(enumerate_fiber_flags(q))
                assert len(flags) == count_fiber(q)
                assert len(set(flags)) == len(flags)
                graded = list(enumerate_lambda_fixed_flags(q))
                assert len(graded) == count_lambda_fixed(q)
                assert len(set(graded)) == len(graded)
                assert all(
                    SubspaceGF.span(w.basis, w.ambient, w.p) == w
                    for flag in graded
                    for w in flag
                )

    def test_flags_satisfy_conditions(self):
        q = FiberQuery.over_orbit(bipartition((), (2, 1)), bipartition((), (3,)), 2)
        shape = q.shape
        for flag in enumerate_fiber_flags(q):
            assert tuple(w.dim for w in flag) == shape.dims[1:]
            for i, w in enumerate(flag):
                for row in w.basis:
                    img = q.x.matvec(row)
                    if i == 0:
                        assert not any(img)
                    else:
                        assert flag[i - 1].contains(img)
