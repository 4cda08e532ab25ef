import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from enhcone.combinatorics import FlagShape, bipartition, bipartitions, flag_shape, is_distinguished
from enhcone.gflinalg import (
    MatrixGF,
    SubspaceGF,
    enumerate_subspaces,
    gaussian_binomial,
    quotient_map,
    rank,
    rref,
)
from enhcone.normalform import (
    GradedPair,
    classify_pair,
    explicit_decomposition,
    jordan_type,
    normal_pair,
)
from enhcone import fibers, gflinalg, normalform
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
)
from oracles import (
    classify_by_centralizer,
    closure_by_count,
    count_by_transitions,
    flag_histogram,
    graded_step,
    hall_row,
    held_out_prime,
    interpolated_row,
    next_prime_after,
    prime_schedule,
    reduce_apply,
    stabilizer_orbit_dimension,
    transitions,
    unmemoized_fiber_count,
    unmemoized_lambda_fixed_count,
    walk_count,
    x_zero_row,
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
            if prefix and not s.contains_subspace(prefix[-1]):
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
        # v = (2,) is 0 over GF(2), so the one flag 0 < V lies in the fiber
        q = FiberQuery((2,), MatrixGF.zeros(1, 1, 2), FlagShape((0, 1), 0), (0,))
        assert q.v == (0,)
        assert count_fiber(q) == 1
        assert len(list(enumerate_fiber_flags(q))) == 1
        assert count_lambda_fixed(q) == 1
        assert len(list(enumerate_lambda_fixed_flags(q))) == 1
        assert count_fiber_memo(q) == 1

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

    def test_count_is_independent_of_the_polynomials(self, monkeypatch, clean_cache):
        def forbidden(*args):
            raise AssertionError("the brute-force count read the polynomial path")

        for module, name in (
            (normalform, "classify_pair"),
            (fibers, "classify_pair"),
            (fibers, "_transition_row"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        yielded = Counter()
        enumerate_all = gflinalg.enumerate_subspaces

        def counting(*args):
            for w in enumerate_all(*args):
                yielded["subspaces"] += 1
                yield w

        monkeypatch.setattr(fibers, "enumerate_subspaces", counting)
        q = FiberQuery.over_orbit(bipartition((), (1, 1, 1, 1)), bipartition((), (2, 2)), 2)
        first = count_fiber(q)
        walked = yielded["subspaces"]
        # one call's memo is gone by the next call, which walks as far
        assert count_fiber(q) == first
        assert yielded["subspaces"] == 2 * walked > 0
        # within a call the memo does replay counts: the plain walker goes further
        assert unmemoized_fiber_count(q) == first
        assert yielded["subspaces"] - 2 * walked > walked
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

    def test_split_profiles_match_enumeration_n4(self):
        for big, small in closure_pairs(4):
            if is_distinguished(small):
                continue
            q = FiberQuery.over_orbit(small, big, 2)
            halves = splitting(small, 2)
            assert lambda_fixed_profiles(q, halves) == flag_histogram(
                enumerate_lambda_fixed_flags(q), halves
            ), (str(big), str(small))

    def test_no_subspaces_is_the_count(self):
        for n in range(5):
            for big, small in closure_pairs(n):
                q = FiberQuery.over_orbit(small, big, 2)
                count = count_fiber(q)
                rows = ((),) * (len(q.shape.dims) - 1)
                assert fiber_profiles(q, ()) == ({rows: count} if count else {})

    def test_spends_one_node_per_expanded_candidate(self, monkeypatch):
        candidates = Counter()
        kernel_step = fibers._kernel_step

        def counting(pair, r1):
            for item in kernel_step(pair, r1):
                candidates["yielded"] += 1
                yield item

        monkeypatch.setattr(fibers, "_kernel_step", counting)
        q = FiberQuery.over_orbit(bipartition((), (2, 1, 1)), bipartition((), (2, 2)), 2)
        filtrations = weight_filtrations(q)
        nodes = []
        hist = fiber_profiles(q, filtrations, lambda: nodes.append(1))
        assert len(nodes) == candidates["yielded"] > 0
        assert sum(hist.values()) == count_fiber(q)
        # a fresh memo on the next call spends as much again
        again = []
        assert fiber_profiles(q, filtrations, lambda: again.append(1)) == hist
        assert len(again) == len(nodes)
        # memo hits expand nothing: the unmemoized walker visits more
        candidates.clear()
        walk_count(fibers._kernel_step, fibers._Pair(q.v, q.x), q.shape.dims, q.shape.marker)
        assert candidates["yielded"] > len(nodes)

    def test_counts_walk_as_the_empty_histogram(self, monkeypatch):
        # a count is the profile walk against no subspaces: the same
        # walker calls and the same candidates, on either step
        tally = Counter()
        kernel_step, cached_step, walker = fibers._kernel_step, fibers._graded_step, fibers._profiles

        def counting_kernel(pair, r1):
            for item in kernel_step(pair, r1):
                tally["candidates"] += 1
                yield item

        def counting_graded(pair, r1):
            step = cached_step(pair, r1)
            tally["candidates"] += len(step)
            return step

        def counting_walker(*args):
            tally["calls"] += 1
            return walker(*args)

        monkeypatch.setattr(fibers, "_kernel_step", counting_kernel)
        monkeypatch.setattr(fibers, "_graded_step", counting_graded)
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


class TestProcessTables:
    """_graded_step and _push keep exact GF(p) objects for the whole
    process; the counts built from them stay per call."""

    def test_graded_step_matches_generator_oracle(self):
        reached = set()
        for n in range(5):
            for b in bipartitions(n):
                for p in (2, 3):
                    np_ = normal_pair(b, p)
                    reached.add(GradedPair(np_.x, np_.v, np_.weights))
        frontier = list(reached)
        while frontier:
            pair = frontier.pop()
            for r1 in range(1, pair.n + 1):
                step = fibers._graded_step(pair, r1)
                assert isinstance(step, tuple)
                assert list(step) == list(graded_step(pair, r1)), (pair, r1)
                # a warm entry is the same sequence, not a spent generator
                assert fibers._graded_step(pair, r1) == step
                for _, sub in step:
                    if sub not in reached:
                        reached.add(sub)
                        frontier.append(sub)
        assert len(reached) > 200

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

    def test_counts_stay_per_call_on_warm_tables(self, monkeypatch):
        candidates = Counter()
        cached_step = fibers._graded_step

        def counting(pair, r1):
            step = cached_step(pair, r1)
            candidates["yielded"] += len(step)
            return step

        monkeypatch.setattr(fibers, "_graded_step", counting)
        q = FiberQuery.over_orbit(bipartition((), (2, 1, 1)), bipartition((4,), ()), 3)
        filtrations = weight_filtrations(q)
        cached_step.cache_clear()
        fibers._push.cache_clear()
        cold = []
        hist = lambda_fixed_profiles(q, filtrations, lambda: cold.append(1))
        assert len(cold) == candidates["yielded"] > 0
        assert sum(hist.values()) == unmemoized_lambda_fixed_count(q) > 0
        assert len(hist) > 1
        steps, pushes = cached_step.cache_info(), fibers._push.cache_info()
        # the second call finds every step and push in the tables, yet
        # spends as many nodes: the histogram memo is its own
        warm = []
        assert lambda_fixed_profiles(q, filtrations, lambda: warm.append(1)) == hist
        assert len(warm) == len(cold)
        assert cached_step.cache_info().misses == steps.misses
        assert cached_step.cache_info().hits > steps.hits
        assert fibers._push.cache_info().misses == pushes.misses
        assert fibers._push.cache_info().hits > pushes.hits
        # count_lambda_fixed expands as many candidates on every call
        candidates.clear()
        first = count_lambda_fixed(q)
        walked = candidates["yielded"]
        assert count_lambda_fixed(q) == first == sum(hist.values())
        assert candidates["yielded"] == 2 * walked > 0
        assert cached_step.cache_info().misses == steps.misses


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
    def test_agrees_with_plain_count(self):
        cache, memo = FiberCache(), {}
        for p in (2, 3):
            for n in range(4):
                for big, small in itertools.product(bipartitions(n), repeat=2):
                    q = FiberQuery.over_orbit(small, big, p)
                    count = count_fiber(q)
                    assert count_fiber_memo(q, cache) == count
                    assert count_by_transitions(q, memo) == count

    def test_cache_statistics(self):
        cache = FiberCache()
        q = FiberQuery.over_orbit(
            bipartition((), (1, 1, 1)), bipartition((), (3,)), 2
        )
        first = count_fiber_memo(q, cache)
        misses = cache.misses
        assert misses > 0
        again = count_fiber_memo(q, cache)
        assert again == first
        assert cache.misses == misses  # fully served from cache
        assert cache.hits > 0

    def test_persistence_roundtrip(self, tmp_path):
        cache = FiberCache()
        q = FiberQuery.over_orbit(bipartition((), (2, 1)), bipartition((), (3,)), 3)
        value = count_fiber_memo(q, cache)
        path = tmp_path / "counts.jsonl"
        cache.save(path)
        fresh = FiberCache()
        fresh.load(path)
        assert len(fresh) == len(cache)
        assert count_fiber_memo(q, fresh) == value
        # nothing was recomputed
        assert fresh.misses == 0

    def test_clear_empties_symbolic_tables(self, monkeypatch):
        cache = FiberCache()
        big, small = bipartition((1,), (2,)), bipartition((), (1, 1, 1))
        q = FiberQuery.over_orbit(small, big, 2)
        poly = fiber_polynomial(big, small, cache)
        value = count_fiber_memo(q, cache)
        assert value == poly.evaluate(2)
        misses = cache.misses
        cache.clear()
        assert cache.stats == {"hits": 0, "misses": 0, "entries": 0}
        transition_row = fibers._transition_row
        rows = []

        def counting(b, r):
            rows.append((b, r))
            return transition_row(b, r)

        monkeypatch.setattr(fibers, "_transition_row", counting)
        # the count misses again and is rebuilt from the polynomial
        assert count_fiber_memo(q, cache) == value
        assert fiber_polynomial(big, small, cache) == poly
        assert cache.misses == misses
        assert rows

    def test_failed_save_keeps_old_file(self, tmp_path):
        cache = FiberCache()
        q = FiberQuery.over_orbit(bipartition((), (2, 1)), bipartition((), (3,)), 3)
        value = count_fiber_memo(q, cache)
        path = tmp_path / "counts.jsonl"
        cache.save(path)
        before = path.read_text()
        # a count json cannot serialize, sorted before the good records
        cache.put(((), (), (0,), 0, 3), object())
        with pytest.raises(TypeError):
            cache.save(path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]
        fresh = FiberCache()
        fresh.load(path)
        assert len(fresh) == len(cache) - 1
        assert count_fiber_memo(q, fresh) == value
        assert fresh.misses == 0

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

    def test_random_conjugation(self):
        rng = random.Random(17)
        cache = FiberCache()
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
                    assert count_fiber_memo(conjugated, cache) == base


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
                    pair = fibers._Pair(np_.v, np_.x)
                    for r1 in range(1, n + 1):
                        subs = {sub for _, sub in fibers._kernel_step(pair, r1)}
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
    def test_interpolation_predicts_fresh_prime(self):
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
                assert fiber_polynomial(big, small, FiberCache()) == poly, (str(big), str(small))


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

    def test_closed_form_rows_match_enumeration(self):
        # every row with n <= 5 at p = 2 and 3, and with n = 6 at p = 2
        checked = 0
        for n in range(1, 7):
            for b in bipartitions(n):
                for r1 in range(1, b.row_count + 1):
                    row = fibers._symbolic_row(b, r1, FiberCache())
                    for p in (2, 3) if n <= 5 else (2,):
                        evaluated = {b2: e.evaluate(p) for b2, e in row.items()}
                        assert evaluated == dict(transitions(b, r1, p)), (str(b), r1, p)
                    checked += 1
        assert checked == 342

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

    def test_polynomials_read_no_prime_field(self, monkeypatch):
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
        cache = FiberCache()
        for n in range(6):
            for big, small in closure_pairs(n):
                fiber_polynomial(big, small, cache)
        assert calls == Counter()


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
