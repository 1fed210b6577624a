"""Each REP rule fires on its bad fixture and stays silent on the good one."""

from pathlib import Path

from repro.analysis import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(rule, filename):
    report = run_analysis([FIXTURES / filename], root=FIXTURES, rules=[rule])
    assert report.rules_run == (rule,)
    return report.findings


class TestRep001AsyncBlocking:
    def test_fires_on_direct_and_chained_blocking(self):
        findings = findings_for("REP001", "rep001_bad.py")
        assert len(findings) == 2
        direct, chained = findings
        assert "time.sleep" in direct.message
        assert "async def handler" in direct.message
        assert "via _step -> _wait" in chained.message
        assert all(f.rule == "REP001" for f in findings)
        assert all("asyncio.sleep" in f.fix_hint for f in findings)

    def test_silent_on_awaited_and_sync_code(self):
        assert findings_for("REP001", "rep001_good.py") == []


class TestRep002Determinism:
    def test_fires_on_set_iteration_and_global_rng(self):
        findings = findings_for("REP002", "rep002_bad.py")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 5
        assert "iteration order over a set" in messages
        assert "sum() over a set" in messages
        assert "comprehension iterates a set" in messages
        assert "numpy.random.rand" in messages
        assert "random.random" in messages

    def test_silent_on_sorted_and_seeded(self):
        assert findings_for("REP002", "rep002_good.py") == []


class TestRep005ObsCatalogue:
    def test_fires_on_invented_span_and_instant_names(self):
        findings = findings_for("REP005", "rep005_bad.py")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "made_up_span" in messages
        assert "made_up_event" in messages

    def test_silent_on_catalogued_and_variable_names(self):
        assert findings_for("REP005", "rep005_good.py") == []
