"""Command-line driver: job parsing, exit codes, caching, determinism."""

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from mirrorint import cli, dwork, kronecker
from mirrorint.cli import (
    EXIT_BUDGET,
    EXIT_CACHE,
    EXIT_CASE_II,
    EXIT_E_BIGGER,
    EXIT_FAIL,
    EXIT_NOT_NONNEGATIVE,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_SCHEMA,
    main,
)
from mirrorint.dwork import CongruenceRanges, PadicContext, q_ratio_congruence_sweep
from mirrorint.forms import FormSystem
from mirrorint.landau import delta_at, in_jump_region
from mirrorint.operators import case30_record, verify_annihilation
from mirrorint.series import MSeries, canonical, from_bytes
from mirrorint.systems import CENTRAL_BINOMIAL, CUBIC_2D

from test_mirror import count_the_pass


class Text:
    """A file's text as it is, where a JSON document would be written; not
    a str, so that a test id does not spell it out."""

    def __init__(self, text):
        self.text = text


# deeper than the JSON decoder can recurse
NESTED = Text("[" * 100_000 + "]" * 100_000)
# the least prime past 2^64, and what a job that lists it is told
PAST_THE_BOUND = 2**64 + 13
# an order no grading holds in two variables, and its refusal's reason
HUGE_ORDER = 100_000
HUGE_GRADING = "5000150001 exponents of degree <= 100000 in d = 2 pass the 65536 a grading holds"
# a fixture of one-term series at that order
HUGE_FIXTURE = {
    s: {"d": 2, "order": HUGE_ORDER, "terms": [{"exp": exp, "num": "1", "den": "1"}]}
    for s, exp in (("F", [0, 0]), ("G", [1, 0]))
}
CUBIC_3D = {"e": [[3, 3, 3]], "f": [[1, 0, 0]] * 3 + [[0, 1, 0]] * 3 + [[0, 0, 1]] * 3}
PAST_THE_BOUND_MESSAGE = f"primes: {PAST_THE_BOUND} is not below 2^64, the bound on primes"


def write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc.text if isinstance(doc, Text) else json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


# the vertices miss its delta = 0 cell on the jump region; the cell walk meets it
ITEM_ONE = {"e": [[2, 1]], "f": [[1, 1], [1, 0]]}
FLAGGED = {"e": [[2, 1]], "f": [[1, 0], [0, 1]]}
# two d = 6 systems, e with f = c_i copies of u_i for c the column sums of
# e: the top level charges 1,947,792 subsets, within the default budget of
# 2,000,000, and as every f is a unit vector it decides Case I with no walk
# (whose first slice would pass the budget)
D6_SYSTEMS = [
    {"e": e, "f": [[int(j == i) for j in range(6)] for i, c in enumerate(map(sum, zip(*e)))
                   for _ in range(c)]}
    for e in ([[3, 2, 2, 2, 2, 2], [3, 2, 1, 3, 2, 2]], [[1, 3, 3, 2, 3, 2], [2, 3, 3, 1, 0, 3]])
]


def drop_from_manifest(cache_root, name):
    manifest = next(cache_root.rglob("manifest.json"))
    doc = json.loads(manifest.read_text())
    del doc["series"][name]
    manifest.write_text(json.dumps(doc))


def edited_bytes(series, edit):
    """The bytes of a series document after ``edit``, which changes the
    document, written back canonically, or returns the bytes to write."""
    blob = edit(series)
    return blob if isinstance(blob, bytes) else canonical(series)


def reseal(cache_root, name, edit):
    """Apply ``edit`` to one series file of a cache entry and record its new hash,
    so that only the reader's own checks can catch the change."""
    manifest = next(cache_root.rglob("manifest.json"))
    doc = json.loads(manifest.read_text())
    path = manifest.parent / doc["series"][name]["file"]
    blob = edited_bytes(json.loads(path.read_text()), edit)
    path.write_bytes(blob)
    doc["series"][name]["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest.write_bytes(canonical(doc))


def _set_first_term(key, value):
    def edit(series):
        series["terms"][0][key] = value

    return edit


def _lower_order(series):
    series["order"] -= 1
    series["terms"] = [t for t in series["terms"] if sum(t["exp"]) <= series["order"]]


def _add_a_variable(series):
    series["d"] += 1
    for t in series["terms"]:
        t["exp"].append(0)


# series documents that MSeries.from_dict rejects
MALFORMED_SERIES = {
    "float num": _set_first_term("num", 1.5),
    "decimal num": _set_first_term("num", "1.5"),
    "zero den": _set_first_term("den", "0"),
    "short exp": _set_first_term("exp", []),
    "bool exp": _set_first_term("exp", [True]),
    "no terms": lambda series: series.pop("terms"),
    "repeated exp": lambda series: series["terms"].append(dict(series["terms"][0])),
    "leading zero num": _set_first_term("num", "01"),
    "plus sign num": _set_first_term("num", "+1"),
}
# well-formed series of another shape than the cached bundle
MISFIT_SERIES = {"lower order": _lower_order, "another dimension": _add_a_variable}


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return [_reversed_keys(v) for v in value] if isinstance(value, list) else value


# series that MSeries.from_dict accepts but that are not the bytes the cache writes
NONCANONICAL_SERIES = {
    "whitespace": lambda series: json.dumps(series).encode(),
    "another key order": lambda series: json.dumps(
        _reversed_keys(series), separators=(",", ":")).encode() + b"\n",
    "terms out of order": lambda series: series["terms"].reverse(),
    "trailing bytes": lambda series: canonical(series) + b"\n",
}
# every edit of a series file that a warm load refuses
CACHE_REJECTS = {**MALFORMED_SERIES, **MISFIT_SERIES, **NONCANONICAL_SERIES}
# on central-binomial: series each cache-reading command verifies but does not build,
# and series dwork, which builds F and G_k itself and reads no cache, never opens
UNREAD_SERIES = {
    "scan": ["F", "G_1", "GL_2"],
    "dwork": ["q_1", "qL_1", "z_1", "GL_2"],
    "bundle": ["F", "G_1", "GL_1", "q_1", "qL_2", "z_1"],
}


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
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "strategy": {"budget": 1}}
        )
        code, _, err = run(capsys, ["classify", job])
        assert code == EXIT_BUDGET

    def test_a_split_case_ii_stops_within_its_top_level_budget(self, tmp_path, capsys):
        # f = (2,0), (1,0) fits under e = (3,0), so delta >= 0 is proven and
        # the vertex zero (1/2, 0) fixes Case II after the 21 top-level
        # subsets; the complete walk would charge 29
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-split"}})
        code, out, _ = run(capsys, ["classify", job, "--budget", "21"])
        assert code == EXIT_CASE_II
        assert json.loads(out)["witness"] == ["1/2", "0"]
        assert run(capsys, ["classify", job, "--budget", "20"])[:2] == (EXIT_BUDGET, "")

    def test_unit_f_case_i_stops_within_its_top_level_budget(self, tmp_path, capsys):
        # every f of cubic-2d is a unit vector, so delta >= 1 on the jump
        # region and its 36 top-level subsets prove Case I; the complete
        # walk would charge 51
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
        code, out, _ = run(capsys, ["classify", job, "--budget", "36"])
        assert code == EXIT_OK
        assert json.loads(out)["tag"] == "CaseI"
        assert run(capsys, ["classify", job, "--budget", "35"])[:2] == (EXIT_BUDGET, "")

    def test_zero_found_by_the_grid_alone_is_case_ii(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"system": ITEM_ONE})
        code, out, _ = run(capsys, ["classify", job])
        assert code == EXIT_CASE_II
        (line,) = out.splitlines()
        verdict = json.loads(line)
        assert verdict["tag"] == "CaseII"
        sys_ = FormSystem(ITEM_ONE["e"], ITEM_ONE["f"])
        witness = tuple(Fraction(c) for c in verdict["witness"])
        assert all(0 <= c < 1 for c in witness)
        assert in_jump_region(sys_, witness) and delta_at(sys_, witness) == 0


def test_flags_do_not_carry_into_the_next_main_call(tmp_path, capsys):
    # main parses every call with one parser built at import
    job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}})
    first = run(capsys, ["classify", job])
    assert first[0] == EXIT_OK
    assert run(capsys, ["classify", job, "--budget", "0"])[0] == EXIT_BUDGET
    assert run(capsys, ["classify", job])[:2] == first[:2]
    job = write_job(tmp_path, "d.json", {"system": {"name": "central-binomial"}})
    first = run(capsys, ["dwork", job, "--no-cache"])
    assert first[0] == EXIT_OK
    assert run(capsys, ["dwork", job, "--no-cache", "--prime", "7"])[1] != first[1]
    assert run(capsys, ["dwork", job, "--no-cache"])[:2] == first[:2]


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

    @pytest.mark.parametrize(
        "command, name, flags, key",
        [
            ("scan", "central-binomial", ["--order", "-1"], {"order": -1}),
            ("scan", "central-binomial", ["--prime", "6"], {"primes": [6]}),
            ("scan", "central-binomial", ["--budget", "-1"], {"strategy": {"budget": -1}}),
            ("scan", "cubic-2d", ["--prime", "6"], {"primes": [6]}),
            ("classify", "cubic-2d", ["--budget", "-1"], {"strategy": {"budget": -1}}),
        ],
    )
    def test_a_flag_is_checked_by_the_rule_of_its_key(
        self, tmp_path, capsys, command, name, flags, key
    ):
        doc = {"system": {"name": name}}
        by_flag = run(capsys, [command, write_job(tmp_path, "a.json", doc), "--no-cache", *flags])
        by_key = run(capsys, [command, write_job(tmp_path, "b.json", doc | key), "--no-cache"])
        assert by_flag[:2] == (EXIT_SCHEMA, "") and len(by_flag[2].splitlines()) == 1
        assert by_flag == by_key

    def test_a_bad_key_exits_2_under_the_flag_that_sets_it(self, tmp_path, capsys):
        doc = {"system": {"name": "central-binomial"}, "order": -1}
        job = write_job(tmp_path, "a.json", doc)
        code, out, err = run(capsys, ["scan", job, "--no-cache", "--order", "3"])
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == "schema error: order must be a nonnegative integer\n"

    @pytest.mark.parametrize("command", ["classify", "bundle", "scan", "dwork", "congruences"])
    def test_every_system_command_needs_a_system(self, tmp_path, capsys, command):
        code, out, err = run(capsys, [command, write_job(tmp_path, "a.json", {}), "--no-cache"])
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == "schema error: this command needs a system\n"

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for blob in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
            path.write_bytes(blob)
            code, out, err = run(capsys, ["classify", str(path)])
            assert code == EXIT_SCHEMA
            assert out == "" and len(err.splitlines()) == 1

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
            ("classify", {"strategy": {"allow_fallback": False}}),  # not a knob
            ("classify", {"budget": True}),
            ("scan", {"order": True}),
            ("scan", {"primes": [True]}),
            ("classify", {"strategy": {"budget": -1}}),
            ("classify", {"budget": 1}),  # the budget lives under strategy
            ("classify", {"strategy": {"random_samples": 64}}),  # not a knob
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
        # the edits below rewrite the manifest canonically, so each changes one thing
        assert canonical(json.loads(intact)) == intact

        def edited(edit):
            doc = json.loads(intact)
            edit(doc)
            return canonical(doc)

        without_z1 = json.loads(intact)
        del without_z1["series"]["z_1"]
        for broken in (
            intact[:40],
            b'{"series": 3}',
            json.dumps(without_z1).encode(),
            edited(lambda doc: doc.update(flagged=True)),
            edited(lambda doc: doc.update(flagged=0)),  # 0 == False, but not its bytes
            edited(lambda doc: doc.update(flagged=1)),
            edited(lambda doc: doc.update(order=99)),
            edited(lambda doc: doc.update(order=6.0)),
            edited(lambda doc: doc.update(system=CUBIC_2D.to_dict())),
            edited(lambda doc: doc.update(note="extra")),
            # qL_1 listed under qL_2's file, with that file's hash
            edited(lambda doc: doc["series"].update(qL_1=doc["series"]["qL_2"])),
        ):
            manifest.write_bytes(broken)
            for command in ("scan", "bundle"):
                code, out, err = run(capsys, [command, job, *cache_args])
                assert code == EXIT_CACHE
                assert out == "" and "cache corruption" in err
        code, _, _ = run(capsys, ["scan", job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK

    @pytest.mark.parametrize("edit", CACHE_REJECTS.values(), ids=CACHE_REJECTS)
    def test_malformed_series_file_exits_3(self, tmp_path, capsys, cache_args, edit):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4}
        )
        code, cold, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_OK
        reseal(tmp_path / "cache", "q_1", edit)
        code, out, err = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_CACHE
        assert out == "" and len(err.splitlines()) == 1 and "q_1" in err
        code, warm, _ = run(capsys, ["scan", job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK and warm == cold

    @pytest.mark.parametrize("name", NONCANONICAL_SERIES)
    def test_noncanonical_series_are_well_formed(self, name):
        # so the rule each one breaks is the cache's byte format, and no other
        s = MSeries(2, 3, {(1, 1): Fraction(-3, 4), (0, 2): 2, (0, 0): 5})
        blob = edited_bytes(json.loads(s.to_bytes()), NONCANONICAL_SERIES[name])
        assert blob != s.to_bytes()
        assert MSeries.from_dict(json.loads(blob)) == s
        with pytest.raises(ValueError):
            from_bytes(blob, 2, 3)

    def test_a_claimed_huge_order_exits_3_at_once(self, tmp_path, capsys, cache_args):
        # the head is compared with the bundle's shape before any grading is made
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-split"}, "order": 4})
        assert run(capsys, ["bundle", job, *cache_args])[0] == EXIT_OK
        reseal(tmp_path / "cache", "F", lambda series: series.update(order=10**6))
        start = time.perf_counter()
        code, out, err = run(capsys, ["scan", job, *cache_args])
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_CACHE, "")
        assert len(err.splitlines()) == 1 and "/F.json" in err

    @pytest.mark.parametrize(
        "command, name",
        [(c, n) for c, names in UNREAD_SERIES.items() for n in names],
    )
    @pytest.mark.parametrize("edit", CACHE_REJECTS.values(), ids=CACHE_REJECTS)
    def test_series_a_command_does_not_read_is_still_verified(
        self, tmp_path, capsys, cache_args, command, name, edit
    ):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4}
        )
        code, cold, _ = run(capsys, [command, job, *cache_args])
        assert code == EXIT_OK
        if command == "dwork":
            # dwork writes no entry, so the bundle makes the one to spoil
            assert run(capsys, ["bundle", job, *cache_args])[0] == EXIT_OK
        reseal(tmp_path / "cache", name, edit)
        code, out, err = run(capsys, [command, job, *cache_args])
        if command == "dwork":
            assert (code, out) == (EXIT_OK, cold)
        else:
            assert code == EXIT_CACHE
            assert out == "" and len(err.splitlines()) == 1 and f"/{name}.json" in err
        code, warm, _ = run(capsys, [command, job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK and warm == cold

    @pytest.mark.parametrize(
        "name, order",
        [("cubic-2d", None), ("cubic-2d", 4), ("cubic-split", None),
         ("central-binomial", None), ("inverse-binomial", None), ("case30", None),
         ("case30", 4)],
    )
    def test_warm_reports_print_what_fresh_ones_print(
        self, tmp_path, capsys, cache_args, name, order
    ):
        doc = {"system": {"name": name}, "primes": [2, 3, 5]}
        if order is not None:
            doc["order"] = order
        job = write_job(tmp_path, "a.json", doc)
        fresh = {"scan": run(capsys, ["scan", job, "--no-cache"])[:2]}
        # --no-cache lists no files, so the bundle manifest is checked against a cold one
        fresh["bundle"] = run(capsys, ["bundle", job, *cache_args])[:2]
        assert fresh["bundle"][0] == EXIT_OK
        for command in ("bundle", "scan"):
            assert run(capsys, [command, job, *cache_args])[:2] == fresh[command]

    @pytest.mark.parametrize("name", ["qL_1", "GL_2", "F"])
    def test_manifest_missing_a_series_exits_3(self, tmp_path, capsys, cache_args, name):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4}
        )
        code, cold, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_OK and len(cold.splitlines()) == 16
        drop_from_manifest(tmp_path / "cache", name)
        code, out, err = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_CACHE
        assert out == "" and name in err
        code, warm, _ = run(capsys, ["scan", job, "--rebuild-cache", *cache_args])
        assert code == EXIT_OK and warm == cold

    def test_manifest_with_an_unexpected_series_exits_3(self, tmp_path, capsys, cache_args):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4}
        )
        run(capsys, ["bundle", job, *cache_args])
        manifest = next((tmp_path / "cache").rglob("manifest.json"))
        doc = json.loads(manifest.read_text())
        doc["series"]["qL_3"] = doc["series"]["qL_2"]
        manifest.write_bytes(canonical(doc))
        code, out, err = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_CACHE
        assert out == "" and f"manifest {manifest} is not the one written" in err

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
        code, out, err = run(capsys, ["bundle", job, *cache_args])
        assert code == EXIT_CACHE
        [entry] = (tmp_path / "cache").iterdir()
        assert out == "" and err.count("\n") == 1
        assert str(entry) in err and "disk full" in err
        monkeypatch.setattr(cli.os, "replace", real_replace)
        names = [p.name for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert len(names) == 2 and "manifest.json" not in names
        code, warm, _ = run(capsys, ["scan", job, *cache_args])
        assert code == EXIT_OK
        code, fresh, _ = run(capsys, ["scan", job, "--no-cache"])
        assert warm == fresh

    def test_unwritable_cache_dir_exits_with_the_cache_code(self, tmp_path, capsys):
        # a regular file where the cache directory should be
        (tmp_path / "cache").write_text("")
        job = write_job(tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4})
        code, out, err = run(capsys, ["scan", job, "--cache-dir", str(tmp_path / "cache")])
        assert code == EXIT_CACHE
        assert out == "" and len(err.splitlines()) == 1 and "cannot write cache entry" in err

    def test_two_writers_on_one_entry(self, tmp_path, capsys, cache_args, monkeypatch):
        # two processes, since _write_atomic names its temporary files by pid
        job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "order": 8})
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "mirrorint", "bundle", job, *cache_args]
        writers = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE) for _ in range(2)]
        outs = [w.communicate(timeout=120)[0] for w in writers]
        assert [w.returncode for w in writers] == [EXIT_OK, EXIT_OK]
        assert outs[0] == outs[1]
        names = [p.name for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert "manifest.json" in names and not [n for n in names if n.endswith(".tmp")]

        def no_build(*args):
            raise AssertionError("the entry was rebuilt, not read")

        monkeypatch.setattr(cli, "build_bundle", no_build)
        code, warm, _ = run(capsys, ["scan", job, *cache_args])
        monkeypatch.undo()
        assert code == EXIT_OK
        assert warm == run(capsys, ["scan", job, "--no-cache"])[1]

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


# the fixture series 1, z and z_1 (in two variables) at order 6
ONE = {"d": 1, "order": 6, "terms": [{"exp": [0], "num": "1", "den": "1"}]}
Z = {"d": 1, "order": 6, "terms": [{"exp": [1], "num": "1", "den": "1"}]}
Z2 = {"d": 2, "order": 6, "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]}
ONE_AT_0 = {"d": 1, "order": 0, "terms": [{"exp": [0], "num": "1", "den": "1"}]}
ZERO_AT_0 = {"d": 1, "order": 0, "terms": []}
ZERO = {"d": 1, "order": 6, "terms": []}  # the zero series at order 6
# the recorded digests of the benchmark's report jobs
BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCES = BENCH / "references.json"


def bench_workloads():
    """``bench/workloads.py``, loaded read-only from its file."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        # its dataclasses resolve their annotations through sys.modules
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def bench_tree_digest(root) -> str:
    """``tree_digest`` of the benchmark: the rule the recorded cache digests
    were taken by."""
    return bench_workloads().tree_digest(str(root))


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

    @pytest.mark.parametrize("edit", MALFORMED_SERIES.values(), ids=MALFORMED_SERIES)
    def test_malformed_fixture_exits_2(self, tmp_path, capsys, edit):
        G = {"d": 1, "order": 6, "terms": [{"exp": [1], "num": "1", "den": "1"}]}
        edit(G)
        F = {"d": 1, "order": 6, "terms": [{"exp": [0], "num": "1", "den": "1"}]}
        fixture = {"F": F, "G": G}
        job = write_job(tmp_path, "a.json", {"fixture": fixture, "primes": [2]})
        code, out, err = run(capsys, ["dwork", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1 and "bad fixture series" in err

    def test_non_p_integral_F_exits_2(self, tmp_path, capsys):
        job = write_job(
            tmp_path, "a.json", {"system": {"name": "inverse-binomial"}, "order": 4}
        )
        code, out, err = run(capsys, ["dwork", job, "--no-cache"])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "p-integral" in err

    @pytest.mark.parametrize(
        "G", [Z2, dict(Z, order=5)], ids=["G of another d", "G of another order"]
    )
    def test_series_of_another_shape_exit_2(self, tmp_path, capsys, G):
        job = write_job(tmp_path, "a.json", {"fixture": {"F": ONE, "G": G}})
        code, out, err = run(capsys, ["dwork", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "incompatible series" in err

    def test_system_and_fixture_together_exit_2(self, tmp_path, capsys):
        doc = {"system": {"name": "cubic-2d"}, "fixture": {"F": ONE, "G": Z}}
        job = write_job(tmp_path, "a.json", doc)
        code, out, err = run(capsys, ["dwork", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "not both" in err

    def test_no_cache_entry_and_cache_flags_change_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a flag without --cache-dir would write
        job = write_job(
            tmp_path,
            "a.json",
            {"system": {"name": "central-binomial"}, "order": 8, "primes": [2, 3]},
        )
        fresh = tmp_path / "fresh"
        code, out, _ = run(capsys, ["dwork", job, "--cache-dir", str(fresh)])
        assert code == EXIT_OK and not fresh.exists()
        assert all(json.loads(l)["pass"] for l in out.splitlines())
        # a cache entry that scan refuses leaves dwork as it is
        cache = tmp_path / "cache"
        assert run(capsys, ["bundle", job, "--cache-dir", str(cache)])[0] == EXIT_OK
        victim = next(cache.rglob("F.json"))
        victim.write_bytes(victim.read_bytes() + b" ")
        assert run(capsys, ["scan", job, "--cache-dir", str(cache)])[0] == EXIT_CACHE
        for flags in (["--cache-dir", str(cache)], ["--no-cache"], ["--rebuild-cache"]):
            assert run(capsys, ["dwork", job, *flags])[:2] == (code, out)
        assert not (tmp_path / ".mirrorint-cache").exists()

    @pytest.mark.parametrize("where", ["job", "flag"])
    def test_order_on_a_fixture_exits_2(self, tmp_path, capsys, where):
        doc = {"fixture": {"F": ONE, "G": Z}, "primes": [2]}
        flags = ["--order", "1"] if where == "flag" else []
        if where == "job":
            doc["order"] = 2
        code, out, err = run(capsys, ["dwork", write_job(tmp_path, "a.json", doc), *flags])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "order" in err

    def test_non_p_integral_fixture_F_comes_before_a_constant_G(self, tmp_path, capsys):
        # F = 1 + z/2 at p = 2 and G = 1 + z: both inputs are wrong, F is named
        F = {"d": 1, "order": 6, "terms": [{"exp": [0], "num": "1", "den": "1"},
                                           {"exp": [1], "num": "1", "den": "2"}]}
        G = {"d": 1, "order": 6, "terms": [{"exp": [0], "num": "1", "den": "1"},
                                           {"exp": [1], "num": "1", "den": "1"}]}
        job = write_job(tmp_path, "a.json", {"fixture": {"F": F, "G": G}, "primes": [2]})
        code, out, err = run(capsys, ["dwork", job])
        assert code == EXIT_SCHEMA and out == ""
        assert err == (
            "schema error: dwork cannot check this input:"
            " F has a non p-integral coefficient at (1,)\n"
        )

    def test_one_coefficient_pass_per_job_for_any_number_of_primes(
        self, tmp_path, capsys, monkeypatch
    ):
        calls, seen = count_the_pass(monkeypatch)
        doc = {"system": {"name": "cubic-2d"}, "order": 6, "primes": [2, 3, 5, 7]}
        code, out, _ = run(capsys, ["dwork", write_job(tmp_path, "a.json", doc)])
        assert code == EXIT_OK and {json.loads(l)["prime"] for l in out.splitlines()} == {2, 3, 5, 7}
        assert calls == [(CUBIC_2D, 6)]
        assert seen == list(kronecker.grading(2, 6).key)

    @pytest.mark.parametrize("name", ["cubic-2d", "cubic-split", "central-binomial", "case30"])
    def test_prints_the_recorded_bytes(self, tmp_path, capsys, monkeypatch, name):
        recorded = json.loads(REFERENCES.read_text())["warm-reports"][f"dwork/{name}"]
        monkeypatch.chdir(tmp_path)
        job = write_job(tmp_path, "a.json", {"system": {"name": name}})
        code, out, _ = run(capsys, ["dwork", job])
        assert code == recorded["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == recorded["stdout"]
        assert list(tmp_path.iterdir()) == [tmp_path / "a.json"]

    def test_case30_prints_the_recorded_bytes(self, tmp_path, capsys, monkeypatch):
        recorded = json.loads(REFERENCES.read_text())["warm-reports"]["case/case30"]
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["case", write_job(tmp_path, "a.json", {"case": "case30"})])
        assert code == recorded["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == recorded["stdout"]

    @pytest.mark.parametrize(
        "name, order", [("cubic-2d", 12), ("case30", 10), ("central-binomial", 32)]
    )
    def test_cold_scan_writes_the_recorded_cache(self, tmp_path, capsys, name, order):
        recorded = json.loads(REFERENCES.read_text())["bundle-cold"][f"scan/{name}/{order}"]
        job = write_job(tmp_path, "a.json", {"system": {"name": name}, "order": order})
        cache = tmp_path / "cold"
        cache.mkdir()
        code, out, _ = run(capsys, ["scan", job, "--cache-dir", str(cache)])
        assert code == recorded["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == recorded["stdout"]
        assert bench_tree_digest(cache) == recorded["cache"]


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

    @pytest.mark.parametrize("m_bound", [0, 1, 2, None])
    def test_unit_ratio_sweep_honours_m_bound(self, tmp_path, capsys, m_bound):
        # None: the default ranges, whose unset m_bound goes to the sweep as it is
        ranges = {} if m_bound is None else {"s_max": 1, "k_bound": 0, "m_bound": m_bound}
        r = CongruenceRanges(**ranges)
        doc = {"system": {"name": "central-binomial"}, "primes": [2, 3], "ranges": ranges}
        code, out, _ = run(capsys, ["congruences", write_job(tmp_path, "a.json", doc)])
        assert code == EXIT_OK
        sweeps = [l for l in map(json.loads, out.splitlines())
                  if l["check"] == "unit-ratio-congruence"]
        assert [line["prime"] for line in sweeps] == [2, 3]
        for line in sweeps:
            _, _, m = line["locus"]
            assert m_bound is None or max(m) <= m_bound
            ctx = PadicContext(line["prime"], CENTRAL_BINOMIAL)
            expected = q_ratio_congruence_sweep(ctx, r.s_max, r.m_bound)
            assert line == {"prime": line["prime"]} | json.loads(json.dumps(expected.to_dict()))

    def test_unit_ratio_sweep_keeps_its_default_m_bound(self, tmp_path, capsys):
        doc = {"system": {"name": "central-binomial"}, "primes": [2],
               "ranges": {"s_max": 1, "k_bound": 0}}
        code, out, _ = run(capsys, ["congruences", write_job(tmp_path, "a.json", doc)])
        assert code == EXIT_OK
        line = json.loads(out.splitlines()[-1])
        expected = q_ratio_congruence_sweep(PadicContext(2, CENTRAL_BINOMIAL), s_max=1)
        assert line == {"prime": 2} | json.loads(json.dumps(expected.to_dict()))

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
        # the check lines are the report's, in its one format
        assert lines[:-1] == verify_annihilation(case30_record(), 8).lines()

    def test_record_from_file(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(case30_record().to_dict()))
        job = write_job(tmp_path, "a.json", {"case": str(rec_path), "order": 6})
        code, out, _ = run(capsys, ["case", job])
        assert code == EXIT_OK
        # the record read back prints what the bundled case prints
        job = write_job(tmp_path, "b.json", {"case": "case30", "order": 6})
        assert run(capsys, ["case", job])[:2] == (EXIT_OK, out)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: [r],
            lambda r: None,
            lambda r: {**r, "special": [[1, 4], [1, 1], 1]},
            lambda r: {**r, "theta_op": 3},
            lambda r: {**r, "theta_op": []},
            lambda r: {**r, "theta_op": [[0, 1.5]]},
            lambda r: {**r, "system": 3},
            lambda r: {**r, "system": {"e": [[1, True]], "f": [[1, 1]]}},
            lambda r: {**r, "system": {"e": [[1, 1]], "f": [[1]]}},
            lambda r: {**r, "closed_form": 3},
            lambda r: {**r, "closed_form": "builtin:nope"},
            lambda r: {**r, "closed_form": "case30"},
            lambda r: {**r, "name": 30},
            lambda r: {**r, "extra": 1},
            lambda r: {k: v for k, v in r.items() if k != "name"},
            lambda r: {**r, "special": {**r["special"], "M": [1]}},
            lambda r: {**r, "special": {**r["special"], "N": [1, 1, 1]}},
            lambda r: {**r, "special": {**r["special"], "M": [0, 4]}},
            lambda r: {**r, "special": {**r["special"], "N": [1, 0]}},
            lambda r: {**r, "special": {**r["special"], "k": 3}},
            lambda r: {**r, "special": {**r["special"], "k": 0}},
            lambda r: {**r, "special": {**r["special"], "k": True}},
            lambda r: {**r, "special": {"M": [1, 4], "N": [1, 1]}},
        ],
    )
    def test_malformed_record_exits_2(self, tmp_path, capsys, edit):
        rec_path = tmp_path / "rec.json"
        rec_path.write_text(json.dumps(edit(case30_record().to_dict())))
        job = write_job(tmp_path, "a.json", {"case": str(rec_path), "order": 6})
        code, out, err = run(capsys, ["case", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        assert "bad case record" in err and "Traceback" not in err

    def test_unreadable_record_exits_2(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"case": str(tmp_path)})
        code, out, err = run(capsys, ["case", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("order", [0, 1])
    def test_order_below_operator_degree_exits_2(self, tmp_path, capsys, order):
        job = write_job(tmp_path, "a.json", {"case": "case30"})
        code, out, err = run(capsys, ["case", job, "--order", str(order)])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1
        job = write_job(tmp_path, "b.json", {"case": "case30", "order": order})
        code, out, err = run(capsys, ["case", job])
        assert code == EXIT_SCHEMA
        assert out == "" and len(err.splitlines()) == 1

    def test_order_equal_to_operator_degree_runs(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"case": "case30", "order": 2})
        code, out, _ = run(capsys, ["case", job])
        assert code == EXIT_OK
        assert all(json.loads(l)["pass"] for l in out.splitlines())

    def test_unknown_case(self, tmp_path, capsys):
        job = write_job(tmp_path, "a.json", {"case": "case999"})
        code, _, _ = run(capsys, ["case", job])
        assert code == EXIT_SCHEMA


DOCUMENTED_EXITS = {EXIT_OK, EXIT_FAIL, EXIT_SCHEMA, EXIT_CACHE, EXIT_CASE_II,
                    EXIT_NOT_NONNEGATIVE, EXIT_E_BIGGER, EXIT_BUDGET, EXIT_PIPE}


@pytest.mark.parametrize(
    "command, doc, flags, broken_series, expected",
    [
        ("scan", {"system": FLAGGED, "order": 3}, ["--no-cache", "--budget", "0"], None,
         EXIT_BUDGET),
        ("case", {"case": "case30"}, ["--budget", "0"], None, EXIT_BUDGET),
        # a system with a witness exits 20 too when its walk cannot start
        *(
            ("classify", {"system": {"name": name}}, ["--budget", "0"], None, EXIT_BUDGET)
            for name in ("cubic-split", "inverse-binomial")
        ),
        *(("classify", {"system": system}, [], None, EXIT_OK) for system in D6_SYSTEMS),
        ("classify", {"system": ITEM_ONE}, [], None, EXIT_CASE_II),
        ("scan", {"system": {"name": "cubic-2d"}, "order": 0}, [], None, EXIT_OK),
        ("case", {"case": "case30", "order": 0}, [], None, EXIT_SCHEMA),
        ("scan", {"system": {"name": "central-binomial"}, "order": 4}, [], "qL_1", EXIT_CACHE),
        ("classify", {"system": {"name": ["cubic-2d"]}}, [], None, EXIT_SCHEMA),
        # the zero operator kills every series, so a record with it certifies nothing
        *(
            ("case", {"case": {**case30_record().to_dict(), "theta_op": polys}, "order": 8},
             [], None, EXIT_SCHEMA)
            for polys in ([[0]], [[]], [[], [0, 0]])
        ),
        # what a command needs is checked on the job file before a flag's value;
        # a string is the schema error's stderr text
        ("classify", {}, ["--prime", "6"], None, "this command needs a system"),
        ("scan", {}, ["--order", "-1"], None, "this command needs a system"),
        ("case", {}, ["--budget", "-1"], None, "case command needs a case name or record path"),
        ("dwork", {"system": {"name": "cubic-2d"}, "fixture": {"F": ONE, "G": Z}},
         ["--prime", "6"], None, "dwork takes a system or a fixture, not both"),
        ("dwork", {"fixture": {"F": ONE, "G": Z}, "order": 2}, ["--prime", "6"], None,
         "a fixture has the order of its series: drop order and --order"),
        ("congruences", {"system": {"e": [[2]], "f": [[1]]}}, ["--budget", "-1"], None,
         "congruences cannot check this system: the congruence harness needs equal column sums"),
        # with no prime no check would run, so an empty list is refused
        ("congruences", {"system": {"e": [[2]], "f": [[1]]}, "primes": []}, [], None, EXIT_SCHEMA),
        ("congruences", {"system": {"name": "cubic-2d"}, "primes": []}, [], None,
         "congruences needs at least one prime"),
        ("dwork", {"system": {"name": "cubic-2d"}, "primes": []}, [], None,
         "dwork needs at least one prime"),
        ("dwork", {"fixture": {"F": ONE, "G": Z}, "primes": []}, [], None,
         "dwork needs at least one prime"),
        # scan with no prime still scans over Z
        ("scan", {"system": {"name": "central-binomial"}, "order": 3, "primes": []}, [], None,
         EXIT_OK),
        # order 0 and zero ranges: a command checks something or is refused
        *((c, {"system": {"name": "cubic-2d"}, "order": 0}, [], None, EXIT_OK)
          for c in ("bundle", "scan")),
        ("dwork", {"system": {"name": "cubic-2d"}, "order": 0}, [], None,
         "dwork needs an order of at least 1"),
        ("dwork", {"system": {"name": "central-binomial"}}, ["--order", "0"], None,
         "dwork needs an order of at least 1"),
        ("dwork", {"fixture": {"F": ONE_AT_0, "G": ZERO_AT_0}, "primes": [2]}, [], None,
         "dwork needs an order of at least 1"),
        # a zero G leaves no nonzero coefficient of the combination to check
        ("dwork", {"fixture": {"F": ONE, "G": ZERO}, "primes": [2]}, [], None,
         "dwork needs a nonzero fixture G"),
        # and so does a system whose every G_k is zero
        *(("dwork", {"system": {"e": e, "f": f, "raw": True}, "primes": [2]}, ["--no-cache"],
           None, "dwork needs a system with a nonzero G_k")
          for e, f in (([[1]], [[1]]), ([[0, 0]], [[0, 0]]), ([[1, 0], [0, 0]], [[1, 0]]))),
        # refusals made once the command has its input
        ("dwork", {"system": {"name": "inverse-binomial"}, "primes": [2]}, [], None,
         "dwork cannot check this input: F has a non p-integral coefficient at (1,)"),
        ("case", {"case": "nope"}, [], None,
         "unknown case 'nope' (not bundled, not a readable path)"),
        ("case", {"case": "case30", "order": 0}, [], None,
         "case case30 needs order >= 2, the z-degree of its operator"),
        ("case", {"case": {**case30_record().to_dict(), "theta_op": [[0]]}, "order": 8}, [], None,
         "bad case record: the zero operator annihilates everything"),
        *(("congruences", {"system": {"name": name}, "primes": [2],
                           "ranges": {"s_max": 0, "k_bound": 0, "m_bound": 0}}, [], None, EXIT_OK)
          for name in ("cubic-2d", "central-binomial")),
        # one row per refusal of the job's shape, each with its stderr line
        ("classify", {"system": {"name": "cubic-2d", "x": 1}}, [], None,
         "unknown system keys: ['x']"),
        ("classify", {"system": {"name": "nope"}}, [], None,
         "unknown bundled system 'nope'; have"
         " ['case30', 'central-binomial', 'cubic-2d', 'cubic-split', 'inverse-binomial']"),
        ("classify", {"system": {"e": [[1]], "f": [[1, 2]]}}, [], None,
         "bad system: all form vectors must share one dimension"),
        ("classify", {"system": {"e": [], "f": [[1]]}}, [], None,
         "system.e and system.f must be non-empty"),
        ("classify", {"system": {"name": "cubic-2d"}, "x": 1}, [], None,
         "unknown job keys: ['x']"),
        ("classify", {"system": {"name": "cubic-2d"}, "commands": "classify"}, [], None,
         "commands must be an array of strings"),
        ("classify", {"system": {"name": "cubic-2d"}, "commands": ["classify", "nope"]}, [], None,
         "unknown commands: ['nope']"),
        ("classify", {"system": {"name": "cubic-2d"}, "commands": ["scan"]}, [], None,
         "job does not list command 'classify'"),
        ("classify", {"system": {"name": "cubic-2d"}}, ["--order", "-1"], None,
         "order must be a nonnegative integer"),
        ("classify", {"system": {"name": "cubic-2d"}}, ["--prime", "4"], None,
         "primes must be an array of prime numbers"),
        ("classify", {"system": {"name": "cubic-2d"}, "strategy": {"x": 1}}, [], None,
         "strategy keys must be a subset of ['budget']"),
        ("classify", {"system": {"name": "cubic-2d"}}, ["--budget", "-1"], None,
         "strategy.budget must be a nonnegative integer"),
        ("classify", {"system": {"name": "cubic-2d"}, "cache_dir": 3}, [], None,
         "cache_dir must be a string"),
        ("case", {"case": 3}, [], None, "case must be a string (bundled name or record path)"),
        ("dwork", {"fixture": 3}, [], None, "fixture must be an object with series F and G"),
        ("dwork", {"fixture": {"F": ONE, "G": 3}}, [], None,
         "bad fixture series: a series is an object with exactly d, order and terms"),
        ("congruences", {"system": {"name": "cubic-2d"}, "ranges": {"x": 1}}, [], None,
         "ranges keys must be a subset of ['k_bound', 'm_bound', 's_max']"),
        ("congruences", {"system": {"name": "cubic-2d"}, "ranges": {"s_max": -1}}, [], None,
         "ranges.s_max must be a nonnegative integer"),
        # a repeated prime would print its reports, or run its harness, twice
        ("scan", {"system": {"name": "central-binomial"}, "primes": [2, 2]}, [], None,
         "primes must not repeat"),
        ("dwork", {"system": {"name": "central-binomial"}}, ["--prime", "2", "--prime", "2"],
         None, "primes must not repeat"),
        ("congruences", {"system": {"name": "cubic-2d"}, "primes": [3, 2, 3]}, [], None,
         "primes must not repeat"),
        # a document nested too deep to decode: a job file, a manifest (written
        # over the one the bundle left) and a case record
        ("classify", NESTED, [], None, EXIT_SCHEMA),
        ("scan", {"system": {"name": "central-binomial"}, "order": 4}, [], NESTED, EXIT_CACHE),
        ("case", {"case": NESTED}, [], None, EXIT_SCHEMA),
        # a prime below 2^64 is decided at once, a larger one refused
        *((c, {"system": {"name": "cubic-2d"}, "order": 3, "primes": [2**61 - 1]}, [], None,
           EXIT_OK) for c in ("classify", "scan", "dwork")),
        ("congruences", {"system": {"name": "cubic-2d"}, "primes": [PAST_THE_BOUND]}, [], None,
         PAST_THE_BOUND_MESSAGE),
        ("scan", {"system": {"name": "cubic-2d"}}, ["--prime", str(PAST_THE_BOUND)], None,
         PAST_THE_BOUND_MESSAGE),
        # an order whose grading would not fit is refused before any is built,
        # for a system, a fixture and a case
        ("scan", {"system": {"name": "cubic-2d"}, "order": HUGE_ORDER}, ["--no-cache"], None,
         f"order too large: {HUGE_GRADING}"),
        ("bundle", {"system": {"name": "central-binomial"}, "order": 65536}, [], None,
         "order too large: 65537 exponents of degree <= 65536 in d = 1 pass the 65536 a"
         " grading holds"),
        ("dwork", {"fixture": HUGE_FIXTURE}, [], None, f"bad fixture series: {HUGE_GRADING}"),
        ("case", {"case": "case30", "order": HUGE_ORDER}, [], None,
         f"order too large for case case30: {HUGE_GRADING}"),
        # a harness past its bound at any prime is refused before the first line
        *(("congruences", {"system": {"name": "central-binomial"}, "primes": primes}, [], None,
           f"congruences cannot run at p = {primes[-1]}: the unit tables would pass the"
           " harness bound of 4194304 entries")
          for primes in ([1009], [2**61 - 1], [2, 1009])),
        ("congruences", {"system": {"name": "cubic-2d"}, "primes": [2],
                         "ranges": {"s_max": 10**12}}, [], None,
         "congruences cannot run at p = 2: the unit tables would pass the harness bound of"
         " 4194304 entries"),
        # strong pseudoprimes to the bases 2-7 and 2-23, and a Carmichael number
        *(("congruences", {"system": {"name": "cubic-2d"}, "primes": [n]}, [], None,
           "primes must be an array of prime numbers")
          for n in (3215031751, 3825123056546413051, 41041)),
    ],
)
def test_cli_contract_has_no_tracebacks(
    tmp_path, capsys, cache_args, command, doc, flags, broken_series, expected
):
    if isinstance(doc, dict) and isinstance(doc.get("case"), (dict, Text)):
        # a case record goes to a file of its own, which the job names
        doc = {**doc, "case": write_job(tmp_path, "record.json", doc["case"])}
    job = write_job(tmp_path, "a.json", doc)
    if broken_series is not None:
        assert run(capsys, ["bundle", job, *cache_args])[0] == EXIT_OK
        if isinstance(broken_series, Text):  # the manifest's new text
            next((tmp_path / "cache").rglob("manifest.json")).write_text(broken_series.text)
        else:
            drop_from_manifest(tmp_path / "cache", broken_series)
    message = expected if isinstance(expected, str) else None
    if message is not None:
        expected = EXIT_SCHEMA
    code, out, err = run(capsys, [command, job, *flags, *cache_args])
    assert code in DOCUMENTED_EXITS
    assert code == expected
    assert "Traceback" not in err
    if code in (EXIT_SCHEMA, EXIT_CACHE, EXIT_BUDGET):
        # refused input, a bad cache and a budget exit print no partial report
        assert out == "" and len(err.splitlines()) == 1
    if code in (EXIT_OK, EXIT_FAIL):
        # an exit 0 or 1 stands on at least one check
        assert out.splitlines()
    if message is not None:
        assert err == f"schema error: {message}\n"


# a job file that holds no job, by its text (None: no file at the path)
NOT_A_JOB = [
    ("[]", "job document must be a JSON object"),
    ("{", "invalid JSON: "),
    (None, "cannot read job file: "),
]
NO_JOB = "no job document: pass a path or pipe JSON on stdin"


@pytest.mark.parametrize("text, message", NOT_A_JOB)
def test_a_file_without_a_job_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "a.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, ["classify", str(path)])
    assert (code, out) == (EXIT_SCHEMA, "")
    assert err.startswith(f"schema error: {message}") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_no_job_from_a_terminal_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(isatty=lambda: True))
    assert run(capsys, ["classify"]) == (EXIT_SCHEMA, "", f"schema error: {NO_JOB}\n")


def test_a_deleted_series_file_exits_3(tmp_path, capsys, cache_args):
    job = write_job(tmp_path, "a.json", {"system": {"name": "central-binomial"}, "order": 4})
    assert run(capsys, ["bundle", job, *cache_args])[0] == EXIT_OK
    next((tmp_path / "cache").rglob("qL_1.json")).unlink()  # the manifest stays intact
    code, out, err = run(capsys, ["scan", job, *cache_args])
    assert (code, out) == (EXIT_CACHE, "")
    assert err.startswith("cache corruption: missing cache file") and len(err.splitlines()) == 1


def _schema_refusals():
    """(function, template) of each ``SchemaError`` raised in a function of
    ``cli``: the message as a regular expression, each formatted field
    standing for any text."""
    tree = ast.parse(Path(cli.__file__).read_text())
    out = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "SchemaError"):
                    msg = node.exc.args[0]
                    parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
                    out.append((fn.name, "".join(
                        re.escape(p.value) if isinstance(p, ast.Constant) else ".*" for p in parts
                    )))
    return out


def test_every_schema_refusal_has_a_contract_row():
    # a new refusal fails here until a row expects its message
    [rows] = [m.args[1] for m in test_cli_contract_has_no_tracebacks.pytestmark
              if m.name == "parametrize"]
    expected = [row[-1] for row in rows if isinstance(row[-1], str)]
    expected += [message for _, message in NOT_A_JOB] + [NO_JOB]
    refusals = _schema_refusals()
    assert refusals
    missing = [r for r in refusals if not any(re.fullmatch(r[1], m) for m in expected)]
    assert missing == []


ONE_VARIABLE = {"system": {"name": "central-binomial"}, "primes": [2]}
TWO_VARIABLES = {"system": {"name": "cubic-2d"}, "primes": [2]}


@pytest.mark.parametrize(
    "command, doc, order",
    [
        *((c, ONE_VARIABLE, 12) for c in ("bundle", "scan", "dwork")),
        *((c, TWO_VARIABLES, 8) for c in ("bundle", "scan", "dwork")),
        ("case", {"case": "case30"}, 12),
        # None: the command takes no order
        *((c, job, None) for c in ("classify", "congruences")
          for job in (ONE_VARIABLE, TWO_VARIABLES)),
        ("dwork", {"fixture": {"F": ONE, "G": Z}, "primes": [2]}, None),
        *((c, TWO_VARIABLES | {"order": 5}, None) for c in ("classify", "congruences")),
    ],
)
def test_parse_job_settles_the_order_the_command_runs_at(tmp_path, capsys, command, doc, order):
    assert cli.parse_job(doc, command).order == order
    if "fixture" in doc:
        return  # a fixture job refuses any order
    # the job prints what it prints with that order written in; one without
    # an order prints the same under any
    ran = run(capsys, [command, write_job(tmp_path, "a.json", doc), "--no-cache"])
    pinned = doc | {"order": 3 if order is None else order}
    assert run(capsys, [command, write_job(tmp_path, "b.json", pinned), "--no-cache"]) == ran
    assert ran[0] == EXIT_OK


@pytest.mark.parametrize(
    "command, doc",
    [
        # the orders and primes the ROADMAP's targets run at
        ("scan", {"system": {"name": "cubic-2d"}, "order": 100}),
        ("dwork", {"system": {"name": "central-binomial"}, "order": 300}),
        ("bundle", {"system": CUBIC_3D, "order": 8}),
        ("congruences", {"system": {"name": "cubic-2d"}, "primes": [7]}),
        ("congruences", {"system": CUBIC_3D, "primes": [5]}),
        # the largest orders a grading holds in one and two variables
        ("scan", {"system": {"name": "central-binomial"}, "order": 65535}),
        ("dwork", {"system": {"name": "cubic-2d"}, "order": 360}),
    ],
)
def test_parse_job_admits_the_targets_within_the_bounds(command, doc):
    assert cli.parse_job(doc, command).system is not None


def test_python_dash_m_runs_the_cli():
    # `python -m mirrorint` exits with the code `cli.main` returns
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "mirrorint", "classify", "-"],
        input=json.dumps({"system": {"name": "cubic-2d"}}),
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


@pytest.mark.parametrize("command", ["dwork", "classify"])
def test_a_closed_stdout_exits_without_a_traceback(tmp_path, command):
    # the reader is gone before the first line: dwork fails inside a write,
    # classify's one line only at the flush
    job = write_job(tmp_path, "a.json", {"system": {"name": "cubic-2d"}, "primes": [2]})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "mirrorint", command, job],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert proc.returncode == EXIT_PIPE and proc.returncode in DOCUMENTED_EXITS
    # at most the summary a command wrote before its stdout failed
    assert b"Traceback" not in err and len(err.splitlines()) <= 1


def test_readme_names_every_flag_and_job_knob():
    # the backticked flags of the README are the subcommands' option strings
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"`(--[a-z][a-z-]*)[^`]*`", readme))
    (subcommands,) = [
        a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    ]
    offered = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert documented == offered
    for key in cli._TOP_KEYS | cli._STRATEGY_KEYS | cli._RANGE_KEYS:
        assert f'"{key}"' in readme, key


def test_readme_states_the_defaults_the_code_resolves(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = " ".join(readme.split())
    # the orders parse_job settles
    one, two, case = map(int, re.search(
        r"`bundle`, `scan` and `dwork` run at order (\d+) in one variable and (\d+)"
        r" otherwise \(`systems.default_order`\), and `case` at (\d+)\.", readme
    ).groups())
    for command in ("bundle", "scan", "dwork"):
        assert cli.parse_job(ONE_VARIABLE, command).order == one
        assert cli.parse_job(TWO_VARIABLES, command).order == two
    assert cli.parse_job({"case": "case30"}, "case").order == case
    primes = re.search(r"`primes` default to \[([\d, ]+)\]", readme).group(1)
    budget = re.search(r"\(default (\d+), `landau.BUDGET`\)", readme).group(1)
    job = cli.parse_job({"system": {"name": "cubic-2d"}}, "classify")
    assert (job.primes, job.budget) == (json.loads(f"[{primes}]"), int(budget))
    # the box bound each formal-congruence sweep is built with, from an unset m_bound
    power = int(re.search(r"An unset `k_bound` or `m_bound` means p\^(\d+)", readme).group(1))
    sweep = int(re.search(r"unit-ratio sweep keeps its own default of m <= (\d+)", readme).group(1))
    bounds = []

    class Ratios(dwork._Ratios):
        def __init__(self, ctx, s_max, m_bound):
            bounds.append(m_bound)
            super().__init__(ctx, s_max, m_bound)

    monkeypatch.setattr(dwork, "_Ratios", Ratios)
    ctx = PadicContext(3, CENTRAL_BINOMIAL)
    dwork.verify_formal_congruences(ctx)
    q_ratio_congruence_sweep(ctx)
    assert bounds == [3**power, sweep]
    assert CongruenceRanges().resolved(3) == (CongruenceRanges.s_max, 3**power, 3**power)
