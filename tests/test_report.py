import json

from aqgrec.report import Report


def test_report_pass_fail_and_max_residual():
    rep = Report("demo")
    rep.add("a", "here", 1e-12, True)
    rep.add("b", "there", 3e-4, True)
    assert rep.passed
    assert rep.max_residual == 3e-4
    rep.add("c", "everywhere", 2.0, False)
    assert not rep.passed
    assert [c.name for c in rep.failures()] == ["c"]
    rep.add("d", "nowhere", float("nan"), False)
    assert rep.max_residual != rep.max_residual  # a NaN row is not hidden


def test_report_skip_does_not_fail():
    rep = Report("demo")
    rep.add("a", "x", 0.0, True)
    rep.skip("b", "y")
    assert rep.passed
    d = rep.to_dict()
    states = {c["check"]: c.get("skipped", False) for c in d["checks"]}
    assert states["b"] is True and states["a"] is False


def test_report_extend_merges_checks():
    a, b = Report("a"), Report("b")
    a.add("x", "l", 0.0, True)
    b.add("y", "l", 1.0, False)
    a.extend(b)
    assert not a.passed
    assert len(a.to_dict()["checks"]) == 2


def test_report_json_is_deterministic_and_parseable():
    def build():
        rep = Report("demo")
        rep.add("zeta", "l2", 0.30000000000000004, True)
        rep.add("alpha", "l1", 1e-300, True)
        return rep.to_json()

    s1, s2 = build(), build()
    assert s1 == s2
    doc = json.loads(s1)
    # residuals survive a JSON roundtrip exactly
    assert doc["checks"][0]["residual"] in (0.30000000000000004, 1e-300)


def test_report_text_mentions_every_check():
    rep = Report("demo")
    rep.add("first", "loc", 0.0, True)
    rep.add("second", "loc", 2.0, False)
    text = rep.to_text()
    assert "first" in text and "second" in text


def _dumps(rep):
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2)


def test_to_json_writes_what_json_dumps_writes():
    assert Report("empty").to_json() == _dumps(Report("empty"))
    rep = Report('title "with" \\ and ü')
    rep.add("finite", "a", 0.30000000000000004, True)
    rep.add("nan", "b", float("nan"), False)
    rep.add("inf", "c", float("inf"), False)
    rep.add("-inf", "d", float("-inf"), False)
    rep.skip("skipped", "e window")
    rep.add("zero", 'quote " backslash \\ label ü ∞ \n', 0.0, True)
    rep.add("tiny", "f", 5e-324, True)
    assert rep.to_json() == _dumps(rep)
    assert json.loads(rep.to_json())["max_residual"] == -1.0  # NaN is not hidden
    nan_free = Report("inf")
    nan_free.add("inf", "g", float("inf"), False)
    assert nan_free.to_json() == _dumps(nan_free)


def test_to_json_on_the_pinned_validate_reports(tmp_path):
    from pathlib import Path

    from aqgrec.bundle import parse_bundle, validate_bundle
    from test_report_identity import _jobs

    seen = 0
    for _, argv in _jobs(tmp_path):
        if argv[0] == "validate":
            rep = validate_bundle(parse_bundle(Path(argv[1]).read_text()))
            assert rep.to_json() == _dumps(rep), argv
            seen += 1
    assert seen == 7


def test_add_rows_matches_add():
    one, bulk = Report("r"), Report("r")
    rows = [("a", 0.5, True), ("b", float("nan"), False), ("c", 2.0, False)]
    for loc, res, ok in rows:
        one.add("x", loc, res, ok)
    locs, res, ok = zip(*rows)
    assert not bulk.add_rows("x", list(locs), res, ok)
    assert repr(bulk.checks) == repr(one.checks)
    assert all(type(c.residual) is float and type(c.passed) is bool for c in bulk.checks)


def test_add_rows_fail_fast_and_skipped():
    rep = Report("r")
    assert rep.add_rows(["x", "y", "x"], ["a", "b", "c"], [0.0, 3.0, 4.0],
                        [True, False, False], fail_fast=True)
    assert [(c.name, c.location, c.passed) for c in rep.checks] == [("x", "a", True), ("y", "b", False)]
    rep = Report("r")
    assert not rep.add_rows("x", ["a", "b w"], [1.0, 7.0], [True, False], fail_fast=True,
                            skipped=[False, True])
    assert rep.checks[1] == ("x", "b w", 0.0, True, True) and rep.passed
