"""The CLI transcript of ``transcript.py`` against its recorded entries."""

import json
from pathlib import Path

import transcript

RECORDED = Path(__file__).resolve().parent / "transcript.json"


def test_the_cli_transcript_matches_its_recorded_digests(tmp_path, monkeypatch):
    # each verb's call count, exit statuses and sha256 over argv, status,
    # stdout, stderr and written bytes; the fixtures go to tmp_path under
    # relative names, so no path reaches a digest
    monkeypatch.chdir(tmp_path)
    assert transcript.digests() == json.loads(RECORDED.read_text(encoding="utf-8"))
