"""Self-test of the benchmark, at a tiny size.

    python3 bench/selftest.py

For every workload it asserts that an untraced and a traced run print
every metric named in ``BENCHMARK.json`` with its unit, that an injected
wrong expected answer is counted as a failure, and that two seeds give
different inputs under the same metric names.  It also checks that the
committed known answers for the default seed still agree with the
reference, and that ``--spans`` writes the recorded spans.  Exits
non-zero on the first failed assertion.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import refresh_known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def quiet(fn, *args, **kwargs):
    """Call fn with stdout captured and stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args, **kwargs)
    return result, out.getvalue()


def expected_answers(name: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        return workloads.build(name, seed, "tiny", Path(work)).reference()


def check_metrics(name: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, text = quiet(run.measure, name, 1, 0.2, trace, size="tiny")
        assert result["correct"] and result["failed"] == 0, (name, trace, result)
        assert result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(wanted), (name, key)
        printed = {line.split(" ")[0]: line.rsplit(" ", 1)[1] for line in text.splitlines() if " " in line}
        for metric, unit in wanted.items():
            assert result["metrics"][metric]["unit"] == unit
            assert printed.get(metric) == unit, (name, metric, "not printed with its unit")
            assert isinstance(result["metrics"][metric]["value"], (int, float))
    result = quiet(run.measure, name, 1, 0.2, 0, size="tiny")[0]
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"]), (name, result)


def check_injected_failure(name: str) -> None:
    expected = expected_answers(name, 1)
    first = next(iter(expected))
    expected[first] = {"injected": "wrong answer"}
    result, _ = quiet(run.measure, name, 1, 0.2, 0, size="tiny", expected_override=expected)
    assert result["failed"] >= 1 and not result["correct"], (name, result)
    assert result["metrics"]["ok_ratio"]["value"] < 1.0, (name, result)


def check_seeds(name: str) -> None:
    assert expected_answers(name, 1) != expected_answers(name, 2), (name, "seeds 1 and 2 give the same inputs")
    names = [set(quiet(run.measure, name, seed, 0.1, 0, size="tiny")[0]["metrics"]) for seed in (1, 2)]
    assert names[0] == names[1]


def check_known_answers() -> None:
    with open(reference.KNOWN_ANSWERS, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == refresh_known.known_answers(), "known_answers.json is stale"


def check_spans() -> None:
    with tempfile.NamedTemporaryFile(suffix=".tsv", dir=BENCH, prefix=".work-") as fh:
        quiet(run.measure, "oracle-sweep", 1, 0.1, 1, size="tiny", spans_path=fh.name)
        lines = Path(fh.name).read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == ["span", "name", "check", "parent", "start_s", "end_s"]
    assert any("\tsimulate.accepts\t" in line for line in lines[1:])


def main() -> int:
    for name in workloads.WORKLOADS:
        check_metrics(name)
        check_injected_failure(name)
        check_seeds(name)
        print(f"ok {name}")
    check_spans()
    print("ok spans")
    check_known_answers()
    print("ok known answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
