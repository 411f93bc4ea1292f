"""Command-line driver: job parsing, exit codes, caching, determinism."""

import json

import pytest

from mirrorint import cli
from mirrorint.cli import (
    EXIT_BUDGET,
    EXIT_CACHE,
    EXIT_CASE_II,
    EXIT_E_BIGGER,
    EXIT_FAIL,
    EXIT_NOT_NONNEGATIVE,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)


def write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


class TestClassify:
    def test_case_i(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
        code, out, err = run(capsys, ["classify", job])
        assert code == EXIT_OK
        assert json.loads(out)["tag"] == "CaseI"

    def test_case_ii_with_witness(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-split"}})
        code, out, _ = run(capsys, ["classify", job])
        assert code == EXIT_CASE_II
        assert json.loads(out)["witness"] == ["1/2", "0"]

    def test_not_nonnegative(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "inverse-binomial"}})
        code, out, _ = run(capsys, ["classify", job])
        assert code == EXIT_NOT_NONNEGATIVE

    def test_strictly_bigger(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"e": [[2]], "f": [[1]]}})
        code, out, _ = run(capsys, ["classify", job])
        assert code == EXIT_E_BIGGER
        assert json.loads(out)["coordinate"] == 1

    def test_budget_exceeded_in_strict_mode(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "budget": 1})
        code, _, err = run(capsys, ["classify", job, "--strategy", "exhaustive"])
        assert code == EXIT_BUDGET

    def test_sampled_case_i_is_not_certified(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
        code, out, _ = run(capsys, ["classify", job, "--strategy", "sampled"])
        assert code == EXIT_BUDGET
        assert json.loads(out)["sampled"] is True

    def test_witness_verdicts_survive_sampling(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-split"}})
        code, out, _ = run(capsys, ["classify", job, "--strategy", "sampled"])
        assert code == EXIT_CASE_II


class TestSchema:
    def test_empty_side_rejected(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"e": [], "f": [[1]]}})
        code, _, err = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA
        assert "non-empty" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "surprise": 1}
        )
        code, _, err = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA
        assert "unknown job keys" in err

    def test_command_allowlist(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "a.json",
            {"system": {"name": "cubic-2d"}, "commands": ["scan"]},
        )
        code, _, err = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA

    def test_bad_prime_flag(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
        code, _, _ = run(capsys, ["scan", job, "--prime", "6", "--no-cache"])
        assert code == EXIT_SCHEMA

    def test_negative_budget_flag(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
        code, _, _ = run(capsys, ["classify", job, "--budget", "-1"])
        assert code == EXIT_SCHEMA

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["classify", str(path)])
        assert code == EXIT_SCHEMA

    def test_unknown_bundled_name(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"name": "nope"}})
        code, _, _ = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("congruences", {"ranges": {"s_max": "x"}}),
            ("congruences", {"ranges": {"s_max": -1}}),
            ("congruences", {"ranges": {"k_bound": True}}),
            ("congruences", {"ranges": {"m_bound": -2}}),
            ("classify", {"strategy": {"budget": "lots"}}),
            ("classify", {"strategy": {"grid_multiplier": 0}}),
            ("classify", {"strategy": {"seed": False}}),
            ("classify", {"strategy": {"allow_fallback": 1}}),
            ("classify", {"budget": True}),
            ("scan", {"order": True}),
            ("scan", {"primes": [True]}),
        ],
    )
    def test_bad_values_exit_2_without_traceback(self, tmp_path, capsys, command, extra):
        doc = {"system": {"name": "central-binomial"}, "primes": [2], **extra}
        job = write_job(tmp_path, "a.json", doc)
        code, out, err = run(capsys, [command, job, "--no-cache"])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1

    def test_booleans_are_not_form_entries(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"e": [[2]], "f": [[1], [True]]}})
        code, _, _ = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA
        job = write_job(
            tmp_path, "b.json", {"system": {"e": [[2]], "f": [[1], [1]], "raw": "no"}}
        )
        code, _, _ = run(capsys, ["classify", job])
        assert code == EXIT_SCHEMA


class TestScanAndCache:
    def test_clean_scan_and_determinism(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 8}
        )
        code1, out1, _ = run(capsys, ["scan", job, "--prime", "2", *cache_args])
        code2, out2, _ = run(capsys, ["scan", job, "--prime", "2", *cache_args])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # warm cache reruns are byte-identical

    def test_bundle_prints_the_same_bytes_cold_and_warm(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 2}
        )
        code1, cold, _ = run(capsys, ["bundle", job, *cache_args])
        code2, warm, _ = run(capsys, ["bundle", job, *cache_args])
        assert code1 == code2 == EXIT_OK
        assert cold == warm

    def test_violations_fail(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "cubic-split"}, "order": 6}
        )
        code, out, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_FAIL
        lines = [json.loads(l) for l in out.splitlines()]
        q1 = next(l for l in lines if l.get("series") == "q_1" and l["prime"] is None)
        assert q1["total"] > 0

    def test_cache_corruption_detected_and_rebuilt(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 6}
        )
        code, _, _ = run(capsys, ["bundle", job, *cache_args])
        assert code == EXIT_OK
        cache_root = tmp_path / "cache"
        victim = next(cache_root.rglob("F.json"))
        victim.write_bytes(victim.read_bytes() + b" ")
        code, _, err = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_CACHE
        assert "hash mismatch" in err
        code, _, _ = run(capsys, ["scan", job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK

    def test_corrupt_manifest_exits_3(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 6}
        )
        code, _, _ = run(capsys, ["bundle", job, *cache_args])
        assert code == EXIT_OK
        manifest = next((tmp_path / "cache").rglob("manifest.json"))
        intact = manifest.read_bytes()
        without_z1 = json.loads(intact)
        del without_z1["series"]["z_1"]
        for broken in (intact[:40], b'{"series": 3}', json.dumps(without_z1).encode()):
            manifest.write_bytes(broken)
            code, _, err = run(capsys, ["scan", job, *cache_args])
            assert code == EXIT_CACHE
            assert "cache corruption" in err
        code, _, _ = run(capsys, ["scan", job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK

    def test_writes_are_renamed_into_place_manifest_last(
        self, tmp_path, capsys, cache_args, monkeypatch
    ):
        targets = []
        real_replace = cli.os.replace

        def replace(src, dst):
            targets.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "order": 3}
        )
        code, out, _ = run(capsys, ["bundle", job, *cache_args])
        assert code == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "cache").rglob("*") if p.is_file())
        assert files == sorted(p.rsplit("/", 1)[-1] for p in targets)
        assert targets[-1].endswith("manifest.json")
        assert len(files) == len(json.loads(out)["series"]) + 1  # no temporary left

    def test_crashed_write_leaves_a_cache_miss(self, tmp_path, capsys, cache_args, monkeypatch):
        real_replace = cli.os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 3:
                raise OSError("disk full")
            real_replace(src, dst)

        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 6}
        )
        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError):
            main(["bundle", job, *cache_args])
        monkeypatch.setattr(cli.os, "replace", real_replace)
        names = [p.name for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert len(names) == 2 and "manifest.json" not in names
        code, warm, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_OK
        code, fresh, _ = run(capsys, ["scan", job, "--no-cache"])
        assert warm == fresh

    def test_no_cache_leaves_no_files(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "a.json",
            {"system": {"name": "central-binomial"}, "order": 6},
        )
        cache = tmp_path / "cache"
        code, _, _ = run(
            capsys, ["scan", job, "--no-cache", "--cache-dir", str(cache)]
        )
        assert code == EXIT_OK
        assert not cache.exists()

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 6}
        )
        env_cache = tmp_path / "envcache"
        monkeypatch.setenv("MIRRORINT_CACHE", str(env_cache))
        code, _, _ = run(capsys, ["bundle", job])
        assert code == EXIT_OK
        assert env_cache.exists()

    def test_flagged_system_reports_classifier(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"e": [[2]], "f": [[1]]}, "order": 6}
        )
        code, out, _ = run(capsys, ["scan", job, *cache_args])
        first = json.loads(out.splitlines()[0])
        assert first["classifier"]["tag"] == "EStrictlyBigger"
        assert code == EXIT_FAIL  # non-integrality expected in this regime


class TestLowOrders:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", ["cubic-2d", "central-binomial"])
    def test_scan_and_bundle(self, tmp_path, capsys, cache_args, name, order):
        job = write_job(tmp_path, "a.json", {"system": {"name": name}, "order": order})
        code, out, _ = run(capsys, ["bundle", job, *cache_args])
        assert code == EXIT_OK
        assert json.loads(out)["order"] == order
        code, out, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.splitlines()]
        assert {l["series"] for l in lines} >= {"q_1", "z_1"}
        assert all(l["total"] == 0 for l in lines)


class TestDwork:
    def test_fixture_fails_at_z_squared(self, tmp_path, capsys):
        fixture = {
            "F": {"d": 1, "order": 6, "terms": [{"exp": [0], "num": "1", "den": "1"}]},
            "G": {"d": 1, "order": 6, "terms": [{"exp": [1], "num": "1", "den": "1"}]},
        }
        job = write_job(tmp_path, "a.json", {"fixture": fixture, "primes": [2]})
        code, out, _ = run(capsys, ["dwork", job])
        assert code == EXIT_FAIL
        lines = [json.loads(l) for l in out.splitlines()]
        bad = [l for l in lines if not l["pass"]]
        assert bad and bad[0]["locus"] == [[2]]

    def test_non_p_integral_F_exits_2(self, tmp_path, capsys):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "inverse-binomial"}, "order": 4}
        )
        code, out, err = run(capsys, ["dwork", job, "--no-cache"])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "p-integral" in err

    def test_bundle_dwork_passes(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path,
            "a.json",
            {"system": {"name": "central-binomial"}, "order": 8, "primes": [2, 3]},
        )
        code, out, _ = run(capsys, ["dwork", job, *cache_args])
        assert code == EXIT_OK
        assert all(json.loads(l)["pass"] for l in out.splitlines())


class TestCongruences:
    def test_quick_ranges_pass(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "a.json",
            {
                "system": {"name": "central-binomial"},
                "primes": [2],
                "ranges": {"s_max": 1, "k_bound": 2, "m_bound": 2},
            },
        )
        code, out, _ = run(capsys, ["congruences", job])
        assert code == EXIT_OK
        checks = [json.loads(l)["check"] for l in out.splitlines()]
        assert "conclusion" in checks and "unit-ratio-congruence" in checks

    def test_unequal_column_sums_exit_2(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": {"e": [[2]], "f": [[1]]}})
        code, out, err = run(capsys, ["congruences", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "equal column sums" in err


class TestCase:
    def test_bundled_case(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"case": "case30", "order": 8})
        code, out, _ = run(capsys, ["case", job])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.splitlines()]
        assert all(l["pass"] for l in lines)
        assert lines[-1]["check"] == "landau-dichotomy"

    def test_record_from_file(self, tmp_path, capsys):
        from mirrorint.operators import case30_record

        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(case30_record().to_dict()))
        job = write_job(tmp_path, "a.json", {"case": str(rec_path), "order": 6})
        code, _, _ = run(capsys, ["case", job])
        assert code == EXIT_OK

    def test_unknown_case(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"case": "case999"})
        code, _, _ = run(capsys, ["case", job])
        assert code == EXIT_SCHEMA
