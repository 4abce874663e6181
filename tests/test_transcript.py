"""The CLI and library transcripts of ``transcript.py`` against their
recorded entries."""

import json
from pathlib import Path

import transcript

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "transcript.json"
LIBRARY = HERE / "library_transcript.json"


def test_the_cli_transcript_matches_its_recorded_digests(tmp_path, monkeypatch):
    # each verb's call count, exit statuses and sha256 over argv, status,
    # stdout, stderr and written bytes; the fixtures go to tmp_path under
    # relative names, so no path reaches a digest
    monkeypatch.chdir(tmp_path)
    assert transcript.digests() == json.loads(RECORDED.read_text(encoding="utf-8"))


def test_the_library_transcript_matches_its_recorded_digests():
    # each entry point's call count, raised ToolkitErrors and sha256 over
    # the arguments and the result of every call, sets sorted
    assert transcript.library_digests() == json.loads(LIBRARY.read_text(encoding="utf-8"))
