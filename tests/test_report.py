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
