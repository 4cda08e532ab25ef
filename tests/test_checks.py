import json
import tracemalloc
from pathlib import Path

import pytest

from enhcone.combinatorics import (
    FlagShape,
    bipartition,
    bipartitions,
    flag_shape,
    format_bipartition,
    is_distinguished,
)
from enhcone.gflinalg import SubspaceGF, quotient_map
from enhcone.normalform import Decomposition, explicit_decomposition, normal_pair, quotient_pair
from enhcone import checks, cli, fibers, normalform
from enhcone.fibers import (
    FiberQuery,
    QPolynomial,
    closure_pairs,
    count_lambda_fixed,
    fiber_dimension_bound,
    fiber_polynomial,
    fiber_profiles,
    interpolate_qpoly,
    lambda_fixed_profiles,
    split_profiles,
)
from enhcone.checks import (
    check_alpha_partition,
    check_distinguished_lemma,
    check_kernel_recursion,
    check_polynomial_count,
    check_semismall,
    check_split_product,
    suite_instances,
)
from oracles import prime_schedule, restrict_pair

PAVING_N4 = Path(__file__).resolve().parent.parent / "bench" / "data" / "paving_n4.json"


class TestPolynomialCount:
    def test_projective_line(self):
        rep = check_polynomial_count(bipartition((), (2,)), bipartition((), (1, 1)))
        assert rep.passed
        assert rep.witness["display"] == "q+1"

    def test_own_orbit_is_point(self):
        for n in range(4):
            for b in bipartitions(n):
                rep = check_polynomial_count(b, b)
                assert rep.passed
                assert rep.witness["display"] == "1"

    def test_full_flag_variety(self):
        rep = check_polynomial_count(
            bipartition((), (3,)), bipartition((), (1, 1, 1))
        )
        assert rep.passed
        assert rep.witness["display"] == "q^3+2q^2+2q+1"

    def test_empty_fiber_notes(self):
        rep = check_polynomial_count(bipartition((), (2,)), bipartition((1,), (1,)))
        assert rep.passed
        assert rep.witness["display"] == "0"
        assert any("empty fiber" in note for note in rep.notes)

    def test_matches_recorded_table(self):
        # bench/data/paving_n4.json was interpolated from sampled fiber counts
        table = json.loads(PAVING_N4.read_text())
        got = [
            {"big": format_bipartition(big), "small": format_bipartition(small),
             "polynomial": list(fiber_polynomial(big, small).coeffs)}
            for n in range(5)
            for big, small in closure_pairs(n)
        ]
        assert got == table

    def test_every_n5_certificate_passes(self):
        pairs = closure_pairs(5)
        assert len(pairs) == 533
        failed = [
            (str(big), str(small))
            for big, small in pairs
            if not check_polynomial_count(big, small).passed
        ]
        assert failed == []

    def test_row_sum_fault_fails(self, monkeypatch, clean_cache):
        transition_row = fibers._transition_row

        def one_too_many(b, r):
            row = transition_row(b, r)
            first = next(iter(row))
            row[first] = row[first] + QPolynomial((0, 1))
            return row

        monkeypatch.setattr(fibers, "_transition_row", one_too_many)
        rep = check_polynomial_count(bipartition((), (2,)), bipartition((), (1, 1)))
        assert rep.verdict == "fail"
        assert "sums to" in rep.witness["reason"]
        assert rep.notes == (rep.witness["reason"],)


class TestAlphaPartition:
    def test_own_orbit_single_piece(self):
        rep = check_alpha_partition(bipartition((1,), (1,)), bipartition((1,), (1,)))
        assert rep.passed
        assert len(rep.witness["pieces"]) == 1

    def test_projective_line_single_piece(self):
        # the pair (0, 0) is graded in a single weight, so its parabolic is
        # the whole group and the profile partition has exactly one piece,
        # which is all lambda-fixed
        rep = check_alpha_partition(bipartition((), (2,)), bipartition((), (1, 1)))
        assert rep.passed
        assert rep.inputs["primes"] == [2, 3]
        (piece,) = rep.witness["pieces"].values()
        assert piece == {"counts": {2: 3, 3: 4}, "fixed": {2: 3, 3: 4}, "affine_rank": 0}

    def test_subregular_pieces(self):
        # the 2q+1 fiber over the subregular pair splits into pieces of
        # sizes q and q+1 under the weight-filtration parabolic: a line
        # over a fixed point and a fixed projective line
        rep = check_alpha_partition(bipartition((), (3,)), bipartition((), (2, 1)))
        assert rep.passed
        pieces = rep.witness["pieces"].values()
        assert sorted(piece["counts"][2] for piece in pieces) == [2, 3]
        assert sorted(piece["affine_rank"] for piece in pieces) == [0, 1]

    def test_sum_consistency_small(self):
        for n in range(3):
            for big, small in closure_pairs(n):
                rep = check_alpha_partition(big, small)
                assert rep.passed
                for record in rep.witness["totals"].values():
                    assert record["enumerated"] == record["counted"]

    def test_every_n4_item_passes(self):
        items = suite_instances(4, ("alpha",))
        assert len(items) == 242
        failed = [desc for desc, thunk in items if not thunk().passed]
        assert failed == []

    def test_budget_counts_walker_nodes(self):
        # x = 0 on GF(p)^2 at p = 2, 3: each walker spends the p + 1 lines
        # W_1 at once, then W_2 = V once, since every quotient is the same
        # pair with the same pushed filtration
        big, small = bipartition((), (2,)), bipartition((), (1, 1))
        spent = []
        for p in (2, 3):
            q = FiberQuery.over_orbit(small, big, p)
            filtrations = [SubspaceGF.full(2, p)]
            for walk in (fiber_profiles, lambda_fixed_profiles):
                walk(q, filtrations, spent.append)
        assert spent == [3, 1, 3, 1, 4, 1, 4, 1]
        nodes = sum(spent)
        assert nodes == 2 * sum(p + 1 + 1 for p in (2, 3)) == 18
        assert check_alpha_partition(big, small, budget=nodes).passed
        rep = check_alpha_partition(big, small, budget=nodes - 1)
        assert rep.verdict == "budget-exceeded"
        assert rep.witness == {"nodes": nodes, "limit": nodes - 1}

    def test_interpolates_nothing_and_walks_only_p_2_and_3(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("interpolate_qpoly called")

        monkeypatch.setattr(fibers, "interpolate_qpoly", forbidden)
        primes = set()
        for name in ("count_fiber_memo", "fiber_profiles", "lambda_fixed_profiles"):
            original = getattr(checks, name)

            def recording(q, *args, original=original):
                primes.add(q.p)
                return original(q, *args)

            monkeypatch.setattr(checks, name, recording)
        for n in range(4):
            for big, small in closure_pairs(n):
                rep = check_alpha_partition(big, small)
                assert rep.passed and rep.inputs["primes"] == [2, 3]
        assert primes == {2, 3}


def _faulty_walk(monkeypatch, name, fault):
    """Replace checks.<name> by the walk whose histogram fault(p, hist)
    returns."""
    original = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda q, *args: fault(q.p, original(q, *args)))


class TestAlphaPartitionFaults:
    """A check that cannot fail shows nothing: each fault fails alpha on the
    subregular fiber, whose pieces are a line over a fixed point (rank 1)
    and a fixed projective line (rank 0)."""

    BIG, SMALL = bipartition((), (3,)), bipartition((), (2, 1))

    def failed_pieces(self) -> dict:
        rep = check_alpha_partition(self.BIG, self.SMALL)
        assert rep.verdict == "fail"
        return {key: piece for key, piece in rep.witness["pieces"].items() if "reason" in piece}

    def test_fixed_part_plus_one_fails(self, monkeypatch):
        def plus_one(p, hist):
            first = min(hist)
            return {**hist, first: hist[first] + 1}

        _faulty_walk(monkeypatch, "lambda_fixed_profiles", plus_one)
        # the sum of the pieces still matches the total: only the cell shape fails
        rep = check_alpha_partition(self.BIG, self.SMALL)
        assert all(t["enumerated"] == t["counted"] for t in rep.witness["totals"].values())
        (key,) = self.failed_pieces()
        assert key == "1,1|1,2|2,3"

    def test_piece_times_p_at_3_only_fails_on_ranks(self, monkeypatch):
        def times_p(p, hist):
            first = min(hist)
            return {**hist, first: hist[first] * p} if p == 3 else hist

        _faulty_walk(monkeypatch, "fiber_profiles", times_p)
        ((key, piece),) = self.failed_pieces().items()
        assert key == "1,1|1,2|2,3"
        assert piece["counts"] == {2: 2, 3: 9} and piece["fixed"] == {2: 1, 3: 1}
        assert piece["reason"].endswith("{2: 1, 3: 2}")

    def test_piece_without_fixed_part_fails(self, monkeypatch):
        _faulty_walk(monkeypatch, "lambda_fixed_profiles", lambda p, hist: dict(sorted(hist.items())[1:]))
        ((key, piece),) = self.failed_pieces().items()
        assert key == "1,1|1,2|2,3"
        assert piece["fixed"] == {2: 0, 3: 0}

    def test_piece_and_part_missing_at_3_fails(self, monkeypatch):
        # the rank-0 piece: 0 = 3^0 * 0 agrees with 3 = 2^0 * 3, so the
        # empty piece must fail by itself
        def drop_at_3(p, hist):
            return dict(sorted(hist.items())[:1]) if p == 3 else hist

        for name in ("fiber_profiles", "lambda_fixed_profiles"):
            _faulty_walk(monkeypatch, name, drop_at_3)
        ((key, piece),) = self.failed_pieces().items()
        assert key == "1,1|2,2|2,3"
        assert piece["counts"] == {2: 3, 3: 0} and piece["fixed"] == {2: 3, 3: 0}


class TestWalkerMultiplicityFault:
    """A walker that walks each distinct child once but reads every
    multiplicity as 1 fails the checks that read its counts.
    check_kernel_recursion runs no walker, so it is no guard against
    such a fault; it guards the first-step enumerator instead."""

    def test_each_check_catches_multiplicity_one(self, monkeypatch):
        cached_children = fibers._children

        def multiplicity_one(*key):
            candidates, children = cached_children(*key)
            return candidates, tuple((sub, pushed, first, 1) for sub, pushed, first, _ in children)

        monkeypatch.setattr(fibers, "_children", multiplicity_one)
        pairs = [pair for n in range(4) for pair in closure_pairs(n)]
        assert any(check_polynomial_count(big, small).verdict == "fail" for big, small in pairs)
        assert any(check_alpha_partition(big, small).verdict == "fail" for big, small in pairs)
        assert any(
            check_split_product(small, big, p).verdict == "fail"
            for big, small in pairs
            if not is_distinguished(small)
            for p in (2, 3)
        )


class TestDistinguishedLemma:
    def test_regular_is_distinguished(self):
        rep = check_distinguished_lemma(bipartition((), (3,)), 2)
        assert rep.passed
        assert rep.witness["splitting_found"] is False

    def test_equal_parts_split(self):
        rep = check_distinguished_lemma(bipartition((2, 2), (1,)), 2)
        assert rep.passed
        assert rep.witness["splitting_found"] is True
        assert rep.witness["explicit_construction"]["violations"] == []

    def test_exhaustive_small(self):
        for n in range(4):
            for b in bipartitions(n):
                rep = check_distinguished_lemma(b, 2)
                assert rep.passed, (str(b), rep.witness)

    def test_budget_exhaustion_reported(self):
        rep = check_distinguished_lemma(bipartition((2, 2), (1,)), 2, budget=3)
        assert rep.verdict == "budget-exceeded"
        assert rep.witness["limit"] == 3

    def test_budget_stops_the_search_before_it_lists_a_large_field(self):
        # the weight space of (();(1,1,1)) is all of GF(419)^3: the search
        # spends its budget on the first lines, none of the rest is built
        tracemalloc.start()
        try:
            rep = check_distinguished_lemma(bipartition((), (1, 1, 1)), 419, budget=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "budget-exceeded"
        assert peak < 1024 * 1024

    def test_budget_counts_search_nodes(self):
        # one node per candidate subspace of a block, and V2 draws only
        # complements at their own dimension: (();(1,1,1)) at p = 3 spends
        # 2 nodes on V1 (0, then the line of e_1) and 4 on the planes up
        # to the first that misses that line
        for b, p, nodes in (
            (bipartition((2, 2), (1,)), 2, 20),
            (bipartition((), (1, 1, 1)), 3, 6),
        ):
            spent = checks.SearchBudget()
            assert checks.search_decomposition(normal_pair(b, p).pair, spent) is not None
            assert spent.nodes == nodes
            assert check_distinguished_lemma(b, p, budget=nodes).passed
            rep = check_distinguished_lemma(b, p, budget=nodes - 1)
            assert rep.verdict == "budget-exceeded"
            assert rep.witness == {"nodes": nodes, "limit": nodes - 1}

    def test_explicit_splitting_read_from_split_table(self, clean_cache):
        rep = check_distinguished_lemma(bipartition((2, 2), (1,)), 2)
        assert rep.passed
        assert normalform.split_factors.cache_info().currsize == 1


class TestSplitProduct:
    def test_two_lines(self):
        b = bipartition((1, 1), ())
        rep = check_split_product(b, b, 2)
        assert rep.passed
        assert rep.witness["product_total"] == rep.witness["split_flags"]

    def test_applicable_pairs_small(self):
        for n in range(4):
            for big, small in closure_pairs(n):
                if is_distinguished(small):
                    continue
                for p in (2, 3):
                    rep = check_split_product(small, big, p)
                    assert rep.passed, (str(big), str(small), p, rep.witness)

    def test_budget_counts_walker_nodes(self):
        small, big = bipartition((), (1, 1, 1)), bipartition((), (2, 1))
        q = FiberQuery.of(normal_pair(small, 2), flag_shape(big))
        dec = explicit_decomposition(normal_pair(small, 2))
        spent = []
        split_profiles(q, dec.v1, dec.v2, spent.append)
        nodes = sum(spent)
        assert nodes > len(spent) > 0
        assert check_split_product(small, big, 2, budget=nodes).passed
        rep = check_split_product(small, big, 2, budget=nodes - 1)
        assert rep.verdict == "budget-exceeded"
        assert rep.witness == {"nodes": nodes, "limit": nodes - 1}

    def test_split_table_is_cleared_and_spends_per_call(self, monkeypatch, clean_cache):
        spent = []

        class Recording(checks.SearchBudget):
            def spend(self, amount=1):
                spent.append(amount)
                super().spend(amount)

        monkeypatch.setattr(checks, "SearchBudget", Recording)
        small, big = bipartition((), (1, 1, 1)), bipartition((), (2, 1))
        runs = []
        for _ in range(2):
            spent.clear()
            runs.append((check_split_product(small, big, 2), sum(spent)))
        (cold, cold_nodes), (warm, warm_nodes) = runs
        assert cold.passed and warm.passed and cold.witness == warm.witness
        # the second call reads the split table, yet spends as many nodes
        assert warm_nodes == cold_nodes > 0
        info = normalform.split_factors.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        np_, dec, failures, pair1, pair2 = normalform.split_factors(small, 2)
        assert np_ == normal_pair(small, 2) and dec == explicit_decomposition(np_)
        assert failures == ()
        assert pair1 == quotient_pair(np_.pair, quotient_map(dec.v2))
        assert pair2 == quotient_pair(np_.pair, quotient_map(dec.v1))
        fibers.fiber_cache().clear()
        assert normalform.split_factors.cache_info().currsize == 0
        spent.clear()
        assert check_split_product(small, big, 2).witness == cold.witness
        assert sum(spent) == cold_nodes

    def test_counts_each_factor_query_once(self, monkeypatch):
        # three buckets, six factor counts, but only two distinct queries
        queries = []

        def recording(q):
            queries.append(q)
            return count_lambda_fixed(q)

        monkeypatch.setattr(checks, "count_lambda_fixed", recording)
        rep = check_split_product(bipartition((), (1, 1, 1)), bipartition((), (3,)), 3)
        assert len(queries) == len(set(queries)) == 2
        factors = {"factor_v1": 4, "factor_v2": 1, "flags": 4, "product": 4}
        assert rep.witness == {
            "split_flags": 12,
            "profiles": {"0,1,2": factors, "1,1,2": factors, "1,2,2": factors},
            "product_total": 12,
        }

    def test_rejects_distinguished(self):
        with pytest.raises(ValueError):
            check_split_product(bipartition((), (2,)), bipartition((), (2,)), 2)

    def test_quotient_factors_count_as_restrictions(self, monkeypatch):
        # V / V2 is V1 and V / V1 is V2, as graded pairs up to a graded
        # change of basis: each factor query counts as on the restriction
        queries = []

        def recording(q):
            queries.append(q)
            return count_lambda_fixed(q)

        monkeypatch.setattr(checks, "count_lambda_fixed", recording)
        compared = 0
        for n in range(5):
            for big, small in closure_pairs(n):
                if is_distinguished(small):
                    continue
                for p in (2, 3):
                    np_ = normal_pair(small, p)
                    dec = explicit_decomposition(np_)
                    factors = [
                        (quotient_pair(np_.pair, quotient_map(other)), restrict_pair(np_.pair, sub))
                        for sub, other in ((dec.v1, dec.v2), (dec.v2, dec.v1))
                    ]
                    queries.clear()
                    assert check_split_product(small, big, p).passed
                    for q in queries:
                        matches = [r for f, r in factors if f == q.graded_pair()]
                        assert matches, (str(small), str(big), p)
                        for r in matches:
                            restricted = FiberQuery(r.v, r.x, q.shape, r.weights)
                            assert count_lambda_fixed(restricted) == count_lambda_fixed(q)
                            compared += 1
        assert compared > 100

    def test_bad_splitting_fails_with_violations(self, monkeypatch, capsys, clean_cache):
        # V2 = span(e_0 + e_2) mixes weights 0 and -1, so no factor pair
        # is induced on it: the check stops at the splitting.  The split
        # table keeps the bad splitting until clean_cache empties it.
        b = bipartition((1,), (1, 1))
        bad = Decomposition(
            SubspaceGF.coordinate((0, 1), 3, 2), SubspaceGF.span([(1, 0, 1)], 3, 2)
        )

        def injected(np_):
            return bad if (np_.bipartition, np_.p) == (b, 2) else explicit_decomposition(np_)

        monkeypatch.setattr(normalform, "explicit_decomposition", injected)
        rep = check_split_product(b, b, 2)
        assert rep.verdict == "fail"
        assert rep.witness == {"splitting_violations": ["V2 not weight-graded"]}
        code = cli.main(["check", "--n", "3", "--checks", "split", "--format", "json"])
        reports = json.loads(capsys.readouterr().out)["reports"]
        failed = [r for r in reports if r["verdict"] == "fail"]
        assert code == 1
        assert failed and all(r["inputs"]["b"] == {"mu": [1], "nu": [1, 1]} for r in failed)
        assert all(r["witness"] == rep.witness for r in failed)

    def test_bad_splitting_is_validated_once_per_orbit(self, monkeypatch, clean_cache):
        # every split item of b reads the violations of the table's entry;
        # the splitting is validated once, and clear() drops the entry
        b = bipartition((1,), (1, 1))
        bad = Decomposition(
            SubspaceGF.coordinate((0, 1), 3, 2), SubspaceGF.span([(1, 0, 1)], 3, 2)
        )
        validated = []

        def injected(np_):
            return bad if (np_.bipartition, np_.p) == (b, 2) else explicit_decomposition(np_)

        def counting(pair, dec, _original=normalform.decomposition_failures):
            validated.append(dec)
            return _original(pair, dec)

        monkeypatch.setattr(normalform, "explicit_decomposition", injected)
        monkeypatch.setattr(normalform, "decomposition_failures", counting)
        bigs = [big for big, small in closure_pairs(3) if small == b]
        assert len(bigs) > 1
        reports = [check_split_product(b, big, 2) for big in bigs]
        assert all(r.verdict == "fail" for r in reports)
        assert all(r.witness == {"splitting_violations": ["V2 not weight-graded"]} for r in reports)
        assert validated == [bad]
        entry = normalform.split_factors(b, 2)
        assert entry.failures == ("V2 not weight-graded",)
        assert entry.factor_v1 is None and entry.factor_v2 is None
        # a report's witness is its own list, not the table's
        reports[0].witness["splitting_violations"].append("edited")
        assert check_split_product(b, bigs[0], 2).witness == reports[1].witness
        fibers.fiber_cache().clear()
        assert normalform.split_factors.cache_info().currsize == 0
        monkeypatch.setattr(normalform, "explicit_decomposition", explicit_decomposition)
        assert all(check_split_product(b, big, 2).passed for big in bigs)
        assert len(validated) == 2


class TestKernelRecursion:
    def test_own_shape(self):
        b = bipartition((2,), (1,))
        rep = check_kernel_recursion(b, flag_shape(b), 2)
        assert rep.passed
        assert rep.witness == {"kernel_weight_multiplicities": {1: 1}, "first_steps": 1}

    def test_oversized_first_step_gives_zero(self):
        # one kernel line has no 2-dimensional subspace: comb(1, 2) = 0
        b = bipartition((2,), (1,))
        rep = check_kernel_recursion(b, FlagShape((0, 2, 3), 1), 2)
        assert rep.passed
        assert rep.witness["first_steps"] == 0

    def test_rejects_marker_zero(self):
        b = bipartition((2,), (1,))
        with pytest.raises(ValueError):
            check_kernel_recursion(b, FlagShape((0, 1, 2, 3), 0), 2)

    def test_rejects_pure_nilpotent_case(self):
        b = bipartition((), (3,))
        with pytest.raises(ValueError):
            check_kernel_recursion(b, flag_shape(b), 2)

    def test_applicable_pairs_small(self):
        for n in range(4):
            for big, small in closure_pairs(n):
                if not is_distinguished(small) or small.first.length == 0:
                    continue
                shape = flag_shape(big)
                if shape.marker == 0:
                    continue
                for p in (2, 3):
                    rep = check_kernel_recursion(small, shape, p)
                    assert rep.passed, (str(big), str(small), p, rep.witness)

    @staticmethod
    def kernel_reports(n):
        return [thunk() for _, thunk in suite_instances(n, ("kernel",))]

    def test_no_walker_runs(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the kernel check ran the fiber walker")

        monkeypatch.setattr(fibers, "_profiles", no_walk)
        reports = self.kernel_reports(5)
        assert len(reports) == 52
        assert all(rep.passed for rep in reports)

    def test_every_item_catches_a_dropped_first_step(self, monkeypatch, clean_cache):
        # an enumerator that loses its last candidate, wherever it is read
        def drop_last(blocks, d, _original=normalform.enumerate_graded_subspaces):
            return iter(list(_original(blocks, d))[:-1])

        for module in (checks, fibers):
            monkeypatch.setattr(module, "enumerate_graded_subspaces", drop_last)
        reports = self.kernel_reports(5)
        assert len(reports) == 52
        assert all(rep.verdict == "fail" for rep in reports)


class TestNormalPairTable:
    def test_checks_and_queries_share_one_normal_pair(self, monkeypatch, clean_cache):
        # the distinguished, split and kernel-recursion checks and the
        # fiber queries over an orbit read normalform.orbit_pair, which
        # builds each (b, p) once until the cache is cleared
        built = []

        def counting(b, p, _original=normalform.normal_pair):
            built.append((b, p))
            return _original(b, p)

        monkeypatch.setattr(normalform, "normal_pair", counting)
        dist, split = bipartition((2,), (1,)), bipartition((), (1, 1, 1))
        for _ in range(2):
            for b in (dist, split):
                assert check_distinguished_lemma(b, 2).passed
                FiberQuery.over_orbit(b, b, 2)
            assert check_kernel_recursion(dist, flag_shape(dist), 2).passed
            assert check_split_product(split, bipartition((), (2, 1)), 2).passed
        assert sorted(built, key=str) == sorted([(dist, 2), (split, 2)], key=str)
        fibers.fiber_cache().clear()
        check_distinguished_lemma(dist, 2)
        assert built[-1] == (dist, 2) and len(built) == 3


class TestSemismall:
    def test_regular_two(self):
        rep = check_semismall(bipartition((), (2,)))
        assert rep.passed
        stratum = rep.witness["strata"]["mu=;nu=1,1"]
        assert stratum["2*deg"] == 2 and stratum["codim"] == 2

    def test_all_small(self, monkeypatch):
        # semismall reads the fiber polynomials alone and makes no count
        def no_count(query):
            raise AssertionError("semismall made a brute-force count")

        monkeypatch.setattr(checks, "count_fiber", no_count)
        for n in range(5):
            for b in bipartitions(n):
                rep = check_semismall(b)
                assert rep.passed, (str(b), rep.witness)

    @staticmethod
    def faked(monkeypatch, small, poly):
        """check_semismall(mu=;nu=2) with the polynomial over small replaced."""
        real = checks.fiber_polynomial

        def fake(big, s):
            return poly if s == small else real(big, s)

        monkeypatch.setattr(checks, "fiber_polynomial", fake)
        return check_semismall(bipartition((), (2,)))

    def test_degree_above_half_codim_fails(self, monkeypatch):
        rep = self.faked(monkeypatch, bipartition((), (1, 1)), QPolynomial((0, 0, 1)))
        assert rep.verdict == "fail"
        assert rep.witness["strata"]["mu=;nu=1,1"] == {
            "fiber_poly": "q^2", "2*deg": 4, "codim": 2, "ok": False
        }
        assert rep.witness["strata"]["mu=;nu=2"]["ok"]

    def test_empty_contained_fiber_fails(self, monkeypatch):
        # the resolution maps onto the closure: no contained fiber is empty
        rep = self.faked(monkeypatch, bipartition((), (1, 1)), QPolynomial(()))
        assert rep.verdict == "fail"
        stratum = rep.witness["strata"]["mu=;nu=1,1"]
        assert stratum["2*deg"] == 0 and stratum["ok"] is False

    def test_failed_transition_row_fails_stratum(self, monkeypatch, clean_cache):
        # T[((1);(1)), 1] is the constant 1; doubled, it no longer sums to [1 choose 1]_q
        transition_row = fibers._transition_row
        b = bipartition((1,), (1,))

        def miscounted(orbit, r1):
            row = transition_row(orbit, r1)
            if (orbit, r1) == (b, 1):
                row = {b2: e + e for b2, e in row.items()}
            return row

        monkeypatch.setattr(fibers, "_transition_row", miscounted)
        rep = check_semismall(bipartition((2,), ()))
        assert rep.verdict == "fail"
        reason = rep.witness["strata"]["mu=1;nu=1"]["reason"]
        assert reason.startswith("T[((1);(1)), 1] sums to 2")
        assert rep.witness["strata"]["mu=1,1;nu="]["ok"]


class TestEulerBridge:
    def test_cell_counts_match_fixed_locus(self):
        # coefficient sums of the fiber polynomial and of the graded-fixed
        # fiber polynomial agree: cells lift one to one
        for n in range(4):
            for big, small in closure_pairs(n):
                shape = flag_shape(big)
                bound = fiber_dimension_bound(shape)
                fixed = {
                    p: count_lambda_fixed(FiberQuery.of(normal_pair(small, p), shape))
                    for p in prime_schedule(bound)
                }
                pf = interpolate_qpoly(fixed, bound)
                pt = fiber_polynomial(big, small)
                assert pt.evaluate(1) == pf.evaluate(1), (str(big), str(small))


class TestReports:
    def test_reports_serialize(self):
        reports = [
            check_polynomial_count(bipartition((), (2,)), bipartition((), (1, 1))),
            check_alpha_partition(bipartition((), (2,)), bipartition((), (1, 1))),
            check_distinguished_lemma(bipartition((1,), (1,)), 2),
            check_split_product(bipartition((1, 1), ()), bipartition((1, 1), ()), 2),
            check_kernel_recursion(
                bipartition((2,), (1,)), flag_shape(bipartition((2,), (1,))), 2
            ),
            check_semismall(bipartition((), (2,))),
        ]
        for rep in reports:
            blob = json.dumps(rep.to_json_dict(), sort_keys=True)
            assert rep.name in blob
            assert rep.millis >= 0

    def test_suite_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            suite_instances(1, ("bogus",))

    def test_suite_builds_closure_pairs_only_for_checks_that_read_them(self, monkeypatch):
        def forbidden(size):
            raise AssertionError("closure_pairs called")

        monkeypatch.setattr(checks, "closure_pairs", forbidden)
        names = [desc["check"] for desc, _ in suite_instances(4, ("distinguished", "semismall"))]
        assert names.count("distinguished") == names.count("semismall") == 38
        with pytest.raises(AssertionError):
            suite_instances(4, ("distinguished", "kernel"))
