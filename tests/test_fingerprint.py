"""Smoke test of the output fingerprint (tests/fingerprint.py) on a few trials."""

import itertools

import fingerprint
import risce.harness as harness


def _few():
    """The first two trials of every set."""
    return [point for make in fingerprint.SETS.values() for point in itertools.islice(make(), 2)]


def test_reruns_agree_and_a_last_digit_change_is_seen(monkeypatch):
    first = fingerprint.digest(_few())
    assert fingerprint.digest(_few()) == first

    original = harness.ESTIMATORS["conventional_omp"]

    def scaled(inp, truth):
        report = original(inp, truth)
        report.values = report.values * (1 + 1e-12)
        return report

    monkeypatch.setitem(harness.ESTIMATORS, "conventional_omp", scaled)
    assert fingerprint.digest(_few()) != first


def test_unknown_set_is_rejected(capsys):
    assert fingerprint.main(["canonical", "nope"]) == 1
    assert "unknown set 'nope'" in capsys.readouterr().err
