import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from enhcone import checks, cli, fibers
from enhcone.cli import main
from enhcone.combinatorics import bipartition
from enhcone.fibers import fiber_cache


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestStartUp:
    def test_import_loads_no_digest_or_rational_modules(self):
        # hashlib loads OpenSSL's libcrypto and fractions loads decimal,
        # about 4 MiB of peak RSS in every process; only the CSV witness
        # digest and interpolate_qpoly read them, so they import them
        # where they run, in a fresh interpreter without site packages
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import enhcone, enhcone.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert "enhcone.cli" in out and "enhcone.fibers" in out
        assert not {"hashlib", "_hashlib", "fractions", "decimal"} & set(out)


class TestOrbits:
    def test_n1_two_rows(self, capsys):
        code, out = run_cli(capsys, "orbits", "--n", "1")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2
        assert {r["bipartition"] for r in rows} == {"mu=;nu=1", "mu=1;nu="}

    def test_n0_single_row(self, capsys):
        code, out = run_cli(capsys, "orbits", "--n", "0")
        assert code == 0
        assert len(csv_rows(out)) == 1

    def test_large_census_row(self, capsys):
        code, out = run_cli(
            capsys, "orbits", "--n", "10", "--mu", "3,1,1", "--nu", "3,2"
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["column_heights"] == "1,1,3,2,2,1"
        assert row["flag_dims"] == "0,1,2,5,7,9,10"
        assert row["marker"] == "3"
        assert row["distinguished"] == "0"
        assert row["schema"] == "enhcone/1"

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "orbits", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "enhcone/1"
        assert len(payload["rows"]) == 5

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "orbits", "--n", "3", "--mu", "1", "--nu", "1")
        assert code == 2

    def test_missing_n_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "orbits")
        assert code == 2


class TestFiberPoly:
    def test_projective_line(self, capsys):
        code, out = run_cli(
            capsys, "fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1"
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["polynomial"] == "q+1"
        assert row["verdict"] == "pass"

    def test_empty_fiber(self, capsys):
        code, out = run_cli(
            capsys,
            "fiber-poly",
            "--big",
            "mu=;nu=2",
            "--small",
            "mu=1;nu=1",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["polynomial"] == []
        assert payload["display"] == "0"
        assert any("empty fiber" in w for w in payload["witnesses"])

    def test_json_payload_schema(self, capsys):
        code, out = run_cli(
            capsys,
            "fiber-poly",
            "--big",
            "mu=;nu=3",
            "--small",
            "mu=;nu=1,1,1",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["display"] == "q^3+2q^2+2q+1"
        assert payload["counts"]["2"] == 21
        assert payload["verdict"] == "pass"

    def test_big_equals_small_large(self, capsys):
        # n = 10: its fiber dimension bound is 40, but every transition row
        # has k <= 3
        b = "mu=3,1,1;nu=3,2"
        code, out = run_cli(capsys, "fiber-poly", "--big", b, "--small", b)
        assert code == 0
        (row,) = csv_rows(out)
        assert (row["counts"], row["polynomial"], row["verdict"]) == ("2:1", "1", "pass")

    def test_size_mismatch(self, capsys):
        code, _ = run_cli(
            capsys, "fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1"
        )
        assert code == 2

    def test_bad_bipartition_syntax(self, capsys):
        code, _ = run_cli(capsys, "fiber-poly", "--big", "2", "--small", "mu=;nu=1,1")
        assert code == 2


class TestCheckCommand:
    def test_n2_all_pass(self, capsys):
        code, out = run_cli(capsys, "check", "--n", "2")
        assert code == 0
        rows = csv_rows(out)
        assert rows and all(r["verdict"] == "pass" for r in rows)

    def test_selected_checks_json(self, capsys):
        code, out = run_cli(
            capsys,
            "check",
            "--n",
            "2",
            "--checks",
            "polynomial,semismall",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] == payload["summary"]["passed"]

    def test_json_output_bytes_are_the_stream_encoders(self, capsys, monkeypatch):
        # the payload written through json.dumps, the C encoder, reads
        # byte for byte as json.dump, the pure-Python one, writes it
        emitted = []
        emit = cli._emit

        def recording(fmt, payload, *rest):
            emitted.append(payload)
            return emit(fmt, payload, *rest)

        monkeypatch.setattr(cli, "_emit", recording)
        code, out = run_cli(capsys, "check", "--n", "3", "--format", "json")
        assert code == 0
        (payload,) = emitted
        expected = io.StringIO()
        json.dump(payload, expected, sort_keys=True, separators=(",", ":"))
        assert out == expected.getvalue() + "\n"

    def test_csv_rows_carry_inputs_and_digests(self, capsys, monkeypatch):
        code, out = run_cli(capsys, "check", "--n", "3", "--format", "json")
        assert code == 0
        reports = json.loads(out)["reports"]
        code, out = run_cli(capsys, "check", "--n", "3")
        assert code == 0
        rows = csv_rows(out)
        descs = [desc for desc, _ in checks.suite_instances(3)]
        assert len(rows) == len(reports) == len(descs) > 0
        for row, report, desc in zip(rows, reports, descs):
            assert row["check"] == report["check"]
            assert json.loads(row["inputs"]) == desc
            assert row["witness_digest"] == cli._witness_digest(report["witness"])
        # a json run builds no csv row, so it digests no witness
        def forbidden(witness):
            raise AssertionError("witness digested under --format json")

        monkeypatch.setattr(cli, "_witness_digest", forbidden)
        code, out = run_cli(capsys, "check", "--n", "3", "--format", "json")
        untimed = lambda reps: [{k: v for k, v in r.items() if k != "millis"} for r in reps]
        assert code == 0
        assert untimed(json.loads(out)["reports"]) == untimed(reports)

    def test_unknown_check_usage_error(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "2", "--checks", "nonsense")
        assert code == 2

    def test_invalid_primes_usage_error(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "1", "--primes", "4,6")
        assert code == 2

    def test_each_pair_certified_once(self, capsys, monkeypatch):
        made = []
        certify = checks.check_polynomial_count

        def counted(big, small):
            made.append((big, small))
            return certify(big, small)

        monkeypatch.setattr(checks, "check_polynomial_count", counted)
        code, out = run_cli(capsys, "check", "--n", "4", "--checks", "semismall", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["passed"] == 38
        assert made == []
        code, out = run_cli(
            capsys, "check", "--n", "4", "--checks", "polynomial,semismall", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["summary"]["passed"] == 242 + 38
        assert len(made) == len(set(made)) == 242

    def test_budget_exhaustion_exits_nonzero(self, capsys):
        code, out = run_cli(
            capsys, "check", "--n", "2", "--checks", "distinguished", "--budget", "2"
        )
        assert code == 1
        rows = csv_rows(out)
        assert any(r["verdict"] == "budget-exceeded" for r in rows)

    def test_kernel_check_spends_no_budget(self, capsys):
        code, out = run_cli(
            capsys, "check", "--n", "4", "--checks", "kernel", "--budget", "1", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["passed"] == summary["total"] == 25

    def test_walker_budget_exhaustion_exits_nonzero(self, capsys):
        code, out = run_cli(
            capsys, "check", "--n", "2", "--checks", "alpha,split", "--budget", "2"
        )
        assert code == 1
        exceeded = {r["check"] for r in csv_rows(out) if r["verdict"] == "budget-exceeded"}
        assert exceeded == {"alpha-partition", "split-product"}


class TestClosureOrder:
    def test_n1_edge(self, capsys):
        code, out = run_cli(capsys, "closure-order", "--n", "1")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["big"] == "mu=1;nu=" and rows[0]["small"] == "mu=;nu=1"

    def test_antisymmetric(self, capsys):
        code, out = run_cli(capsys, "closure-order", "--n", "3")
        assert code == 0
        edges = {(r["big"], r["small"]) for r in csv_rows(out)}
        assert all((s, b) not in edges for b, s in edges)
        assert all(b != s for b, s in edges)


class TestDeterminism:
    def test_check_repeat_runs_identical(self, capsys):
        _, out1 = run_cli(capsys, "check", "--n", "2")
        _, out2 = run_cli(capsys, "check", "--n", "2")
        # timings differ run to run; everything else must be identical
        strip = lambda text: [row[:4] for row in csv.reader(io.StringIO(text))]
        assert strip(out1) == strip(out2)

    def test_repeat_runs_identical(self, capsys):
        _, out1 = run_cli(capsys, "orbits", "--n", "4")
        _, out2 = run_cli(capsys, "orbits", "--n", "4")
        assert out1 == out2


class TestExitCodes:
    def test_negative_n_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "orbits", "--n", "-1")
        assert code == 2

    def test_invalid_bipartition_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "orbits", "--mu", "2,3")
        assert code == 2

    def test_empty_prime_schedule_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "1", "--primes", " ")
        assert code == 2

    def test_empty_option_values_are_usage_errors(self, capsys):
        for option in ("--primes", "--checks", "--cache"):
            code, _ = run_cli(capsys, "check", "--n", "1", option, "")
            assert code == 2, option

    def test_budget_below_one_is_usage_error(self, capsys):
        for budget in ("0", "-1"):
            code, _ = run_cli(
                capsys, "check", "--n", "1", "--checks", "distinguished", "--budget", budget
            )
            assert code == 2, budget

    def test_jobs_option_is_gone(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "1", "--jobs", "2")
        assert code == 2

    def test_removed_flags_are_usage_errors(self, capsys):
        removed = [
            ("orbits", "--n", "1", "--primes", "2"),
            ("orbits", "--n", "1", "--budget", "3"),
            ("orbits", "--n", "1", "--cache", "counts.jsonl"),
            ("fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1", "--budget", "3"),
            ("fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1", "--primes", "2,3"),
            ("fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1", "--holdout", "5"),
            ("fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1", "--cache", "counts.jsonl"),
            ("closure-order", "--n", "1", "--budget", "3"),
            ("closure-order", "--n", "1", "--primes", "2"),
            ("closure-order", "--n", "1", "--cache", "counts.jsonl"),
        ]
        for argv in removed:
            code, _ = run_cli(capsys, *argv)
            assert code == 2, argv

    def test_library_error_is_internal(self, capsys, monkeypatch):
        argv = ["fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1"]
        for error in (ValueError, KeyError, TypeError):

            def broken(q):
                raise error("invariant broken")

            monkeypatch.setattr(checks, "count_fiber", broken)
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3, error
            assert captured.err.startswith(f"internal error: {error.__name__}:")
            assert captured.out == ""
            # with --format json the same error is also one JSON object on stdout
            code = main(argv + ["--format", "json"])
            captured = capsys.readouterr()
            assert code == 3, error
            assert captured.err.startswith(f"internal error: {error.__name__}:")
            assert captured.out.count("\n") == 1
            assert json.loads(captured.out) == {
                "schema": "enhcone/1",
                "error": {"exit_code": 3, "type": error.__name__, "message": str(error("invariant broken"))},
            }

    def test_interrupt_is_not_an_internal_error(self, monkeypatch):
        def interrupted(q):
            raise KeyboardInterrupt

        monkeypatch.setattr(checks, "count_fiber", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1"])

    def test_failed_transition_row_is_check_failure(self, capsys, monkeypatch, clean_cache):
        # T[((1);(1)), 1] is the constant 1; doubled, it no longer sums to [1 choose 1]_q
        transition_row = fibers._transition_row
        b = bipartition((1,), (1,))

        def miscounted(orbit, r1):
            row = transition_row(orbit, r1)
            if (orbit, r1) == (b, 1):
                row = {b2: e + e for b2, e in row.items()}
            return row

        monkeypatch.setattr(fibers, "_transition_row", miscounted)
        code, out = run_cli(
            capsys, "fiber-poly", "--big", "mu=1;nu=1", "--small", "mu=1;nu=1", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        (note,) = payload["witnesses"]
        assert "sums to" in note
        for selected in ("polynomial,semismall", "alpha"):
            code, out = run_cli(
                capsys, "check", "--n", "2", "--checks", selected, "--format", "json"
            )
            assert code == 1, selected
            failed = [r for r in json.loads(out)["reports"] if r["verdict"] == "fail"]
            assert failed, selected
        # alpha's fiber totals are polynomials at q = p, read through that row
        assert all(r["notes"] == [r["witness"]["reason"]] for r in failed)
        assert all(r["witness"]["reason"].startswith("T[((1);(1)), 1]") for r in failed)


def strip_millis(text):
    return [row[:5] for row in csv.reader(io.StringIO(text))]


class TestCacheOption:
    # the alpha check reads and writes the count table
    CHECK = ("check", "--n", "2", "--checks", "alpha")

    def test_cache_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "counts.jsonl"
        code, out1 = run_cli(capsys, *self.CHECK, "--cache", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"cache_format": 1}
        assert len(lines) > 1
        code, out2 = run_cli(capsys, *self.CHECK, "--cache", str(path))
        assert code == 0
        assert strip_millis(out1) == strip_millis(out2)

    def test_cache_dir_env(self, tmp_path, capsys, monkeypatch):
        # no command reads ENHCONE_CACHE_DIR: only --cache names a count file
        monkeypatch.setenv("ENHCONE_CACHE_DIR", str(tmp_path))
        for argv in [
            ("fiber-poly", "--big", "mu=;nu=2", "--small", "mu=;nu=1,1"),
            self.CHECK,
            ("orbits", "--n", "1"),
            ("closure-order", "--n", "2"),
        ]:
            code, _ = run_cli(capsys, *argv)
            assert code == 0, argv
        assert list(tmp_path.iterdir()) == []

    def test_orbits_ignores_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENHCONE_CACHE_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "orbits", "--n", "1")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_closure_order_ignores_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENHCONE_CACHE_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "closure-order", "--n", "2")
        assert code == 0
        assert list(tmp_path.iterdir()) == []


def count_record(p, count):
    """A cache record for the fiber of (();(2)) over (();(1,1)): a
    projective line, q + 1 points."""
    return json.dumps({"key": [[], [1, 1], [0, 1, 2], 0, p], "count": count})


class TestHeldOutCount:
    """A cache file with wrong counts fails the alpha check, whose totals
    come from the count table, and changes no paving certificate or
    semismall check: they read no count table."""

    @staticmethod
    def poisoned_cache(tmp_path):
        # 2p + 1 at p = 2, 3, 5, the primes of alpha's schedule for the pair
        path = tmp_path / "poisoned.jsonl"
        lines = [json.dumps({"cache_format": 1})]
        lines += [count_record(p, 2 * p + 1) for p in (2, 3, 5)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def zero_count_cache(tmp_path):
        # an empty fiber at p = 2, though the pair is in the closure order
        path = tmp_path / "zero.jsonl"
        path.write_text(json.dumps({"cache_format": 1}) + "\n" + count_record(2, 0) + "\n")
        return path

    @pytest.mark.parametrize("make_cache", ["poisoned_cache", "zero_count_cache"])
    def test_polynomial_and_semismall_read_no_count(
        self, tmp_path, capsys, clean_cache, make_cache
    ):
        path = getattr(self, make_cache)(tmp_path)
        code, out = run_cli(
            capsys, "check", "--n", "2", "--checks", "polynomial,semismall",
            "--cache", str(path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total"] == payload["summary"]["passed"] == 26
        line = {"mu": [], "nu": [2]}
        (cert,) = [
            r for r in payload["reports"]
            if r["check"] == "polynomial-count" and r["inputs"]["big"] == line
            and r["inputs"]["small"] == {"mu": [], "nu": [1, 1]}
        ]
        assert cert["witness"]["display"] == "q+1"
        (semismall,) = [
            r for r in payload["reports"]
            if r["check"] == "semismall" and r["inputs"]["big"] == line
        ]
        assert semismall["witness"]["strata"]["mu=;nu=1,1"]["fiber_poly"] == "q+1"

    def test_failed_run_clears_cache(self, tmp_path, capsys, clean_cache):
        path = self.poisoned_cache(tmp_path)
        argv = ("check", "--n", "2", "--checks", "alpha", "--cache", str(path))
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 1
        assert f"warning: cleared cache {path}: a check failed" in err
        assert path.read_text().splitlines() == [json.dumps({"cache_format": 1})]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["total"] == summary["passed"] == 18

    def test_poisoned_count_fails_alpha_not_split(self, tmp_path, capsys, clean_cache):
        # a huge count used to exhaust both checks' budgets on every run,
        # so the file was never cleared; the budgets now count walker
        # nodes, and only alpha reads the count
        path = tmp_path / "huge.jsonl"
        path.write_text(
            json.dumps({"cache_format": 1}) + "\n" + count_record(2, 100000000) + "\n"
        )
        argv = ("check", "--n", "2", "--checks", "alpha,split", "--cache", str(path), "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == 1
        summary = json.loads(out)["summary"]
        assert (summary["failed"], summary["budget_exceeded"]) == (1, 0)
        assert path.read_text().splitlines() == [json.dumps({"cache_format": 1})]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["total"] == summary["passed"] == 26

    def test_check_command_fails(self, tmp_path, capsys, clean_cache):
        path = self.poisoned_cache(tmp_path)
        code, _ = run_cli(
            capsys, "check", "--n", "2", "--checks", "alpha", "--cache", str(path)
        )
        assert code == 1

    def test_library_certificate_fails(self, tmp_path, clean_cache):
        fiber_cache().load(self.poisoned_cache(tmp_path))
        rep = checks.check_alpha_partition(
            bipartition((), (2,)), bipartition((), (1, 1))
        )
        assert rep.verdict == "fail"
        assert rep.witness["totals"][2] == {"enumerated": 3, "counted": 5}


class TestCacheValidation:
    """A malformed cache file is ignored whole: its one valid record
    (5 points at p = 2, where q + 1 has 3) is never read, so the alpha
    check, which would fail on it, passes."""

    HEADER = json.dumps({"cache_format": 1})
    FILES = {
        "bad-key": [HEADER, count_record(2, 5), json.dumps({"key": [1, 2]})],
        "list-header": ["[1]", count_record(2, 5)],
        "list-record": [HEADER, count_record(2, 5), "[1, 2]"],
        "string-count": [HEADER, count_record(2, 5), count_record(3, "x")],
        "bool-count": [HEADER, count_record(2, 5), count_record(3, True)],
    }

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_malformed_file_ignored(self, tmp_path, capsys, clean_cache, name):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(self.FILES[name]) + "\n")
        code = main(["check", "--n", "2", "--checks", "alpha", "--cache", str(path)])
        captured = capsys.readouterr()
        assert "warning: ignoring cache" in captured.err
        assert all(row["verdict"] == "pass" for row in csv_rows(captured.out))
        assert code == 0
