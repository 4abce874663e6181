import io
import time

import pytest

from corpus import spray01, u_all_rows, u_one_row
from pictomata import Alphabet, Automaton2D, build_witness, cli, make_delta, save_automaton
from pictomata.cli import dispatch
from pictomata.onedim import load_automaton_1d, save_automaton_1d, simulate_1d
from pictomata.automaton import load_automaton
from corpus import corpus_1d


def run_cli(argv):
    out = io.StringIO()
    status = dispatch(argv, out=out)
    return status, out.getvalue()


@pytest.fixture()
def frz_path(tmp_path):
    p = tmp_path / "frz.aut"
    save_automaton(build_witness("first-row-zeros"), p)
    return str(p)


@pytest.fixture()
def pic_path(tmp_path):
    p = tmp_path / "w.pic"
    p.write_text("000\n")
    return str(p)


def test_validate_ok(frz_path):
    status, out = run_cli(["validate", frz_path])
    assert status == 0
    assert out.startswith("valid: yes")


def test_validate_bad(tmp_path):
    p = tmp_path / "bad.aut"
    p.write_text(
        "automaton bad\nvariant 2W\nmode det\nalphabet 0\nstates q0 acc\n"
        "initial q0\naccept acc\nq0 0 -> q0 L\n"
    )
    status, out = run_cli(["validate", str(p)])
    assert status == 1
    assert "illegal direction" in out


def test_run_accept_and_trace(frz_path, pic_path):
    status, out = run_cli(["run", frz_path, pic_path])
    assert status == 0
    assert out == "verdict: accepted\n"
    status, out = run_cli(["run", frz_path, pic_path, "--trace"])
    assert status == 0
    assert "q0 @ (1,1) reads '0'" in out
    assert out.strip().endswith("verdict: accepted")


def test_run_reject_status(frz_path, tmp_path):
    p = tmp_path / "v.pic"
    p.write_text("1\n")
    status, out = run_cli(["run", frz_path, str(p)])
    assert status == 1
    assert "rejected" in out


def test_run_nondet_verdict_without_trace_search(tmp_path, monkeypatch):
    # The trace search enumerates simple paths, exponential on a rejected
    # word; a verdict alone must come from accepts().
    def no_search(a, w):
        raise AssertionError("trace search for a bare verdict")

    monkeypatch.setattr(cli, "first_accepting_trace", no_search)
    apath, zeros, hit = tmp_path / "spray.aut", tmp_path / "z.pic", tmp_path / "h.pic"
    save_automaton(spray01(), apath)
    zeros.write_text("0000\n" * 4)
    hit.write_text("01\n")
    for extra in ([], ["--trace"]):
        assert run_cli(["run", str(apath), str(zeros), *extra]) == (1, "verdict: rejected\n")
    assert run_cli(["run", str(apath), str(hit)]) == (0, "verdict: accepted\n")


_AUT_2D = "automaton m\nvariant 2W\nmode det\nalphabet 0 1\nstates q0 acc\ninitial q0\naccept acc\nq0 # -> acc R\n"
_AUT_1D = "automaton n\nvariant 1D-2W\nmode det\nalphabet 0 1\nstates q0 acc\ninitial q0\naccept acc\n"
_AUT_3W = "automaton h\nvariant 3W\nmode det\nalphabet 0 1\nstates q0 acc\ninitial q0\naccept acc\n"


@pytest.mark.parametrize(
    "verb, text",
    [
        pytest.param("validate", "automaton\n", id="2d-bare-key"),
        pytest.param("validate", _AUT_2D.replace("variant 2W", "variant"), id="2d-no-variant"),
        pytest.param("validate", _AUT_2D.replace("mode det", "mode"), id="2d-no-mode"),
        pytest.param("validate", _AUT_2D.replace("initial q0", "initial"), id="2d-no-initial"),
        pytest.param("validate", _AUT_2D.replace("accept acc", "accept"), id="2d-no-accept"),
        pytest.param("to-oneway", _AUT_1D.replace("automaton n", "automaton"), id="1d-no-name"),
        pytest.param("to-oneway", _AUT_1D.replace("variant 1D-2W", "variant"), id="1d-no-variant"),
        pytest.param("to-oneway", _AUT_1D + "q0 0 -> ghost R\n", id="1d-undeclared-target"),
        pytest.param("to-oneway", _AUT_1D + "ghost 0 -> q0 R\n", id="1d-undeclared-source"),
        pytest.param("to-oneway", _AUT_1D.replace("initial q0", "initial ghost"), id="1d-undeclared-initial"),
        pytest.param("to-oneway", _AUT_1D.replace("accept acc", "accept ghost"), id="1d-undeclared-accept"),
        pytest.param("to-oneway", _AUT_1D + "q0 2 -> q0 R\n", id="1d-foreign-symbol"),
        pytest.param("to-oneway", _AUT_1D + "q0 0 -> q0 X\n", id="1d-bad-move"),
        pytest.param("rowsim", _AUT_3W + "q0 0 -> q0 R\nq0 0 -> acc D\n", id="3w-det-fan-out"),
        pytest.param("construct ibr", _AUT_2D + "q0 0 -> zz R\n", id="ibr-factor-undeclared-target"),
        pytest.param("construct diag", _AUT_2D + "q0 0 -> zz R\n", id="diag-factor-undeclared-target"),
    ],
)
def test_malformed_machine_files_exit_2(tmp_path, verb, text):
    path = tmp_path / "bad.aut"
    path.write_text(text)
    o = str(tmp_path / "o.aut")
    args = {
        "validate": [str(path)],
        "to-oneway": [str(path), "-o", o],
        "rowsim": [str(path), "--entry-state", "q0", "--side", "left", "--offset", "1", "-o", o],
        "construct ibr": [str(path), "-o", o],
        "construct diag": [str(path), str(path), "-o", o],
    }[verb]
    status, out = run_cli([*verb.split(), *args])
    assert (status, out) == (2, "")
    assert not (tmp_path / "o.aut").exists()


@pytest.mark.parametrize(
    "edit, violation",
    [
        (("variant 2W", "variant 5W"), "unknown variant '5W'"),
        (("mode det", "mode x"), "unknown mode 'x'"),
        (("states q0 acc", "states q0 q0 acc"), "duplicate state identifiers"),
        (("initial q0", "initial ghost"), "initial state 'ghost' not declared"),
        (("accept acc", "accept ghost"), "accepting state 'ghost' not declared"),
        (("q0 # -> acc R", "ghost # -> acc R"), "unknown source state at (ghost,'#')"),
    ],
)
def test_validate_reports_each_violation(tmp_path, edit, violation):
    path = tmp_path / "bad.aut"
    path.write_text(_AUT_2D.replace(*edit))
    assert run_cli(["validate", str(path)]) == (1, f"valid: no\nviolation: {violation}\n")


def test_enum_report(frz_path):
    status, out = run_cli(["enum", frz_path, "--max-rows", "2", "--max-cols", "2"])
    assert status == 0
    assert out.startswith("count: 8\n")


def test_concat_row(tmp_path):
    a = tmp_path / "a.pic"
    b = tmp_path / "b.pic"
    a.write_text("00\n")
    b.write_text("01\n")
    status, out = run_cli(["concat", "row", str(a), str(b)])
    assert status == 0
    assert out == "00\n01\n"
    b.write_text("011\n")
    status, _ = run_cli(["concat", "row", str(a), str(b)])
    assert status == 2


def test_concat_col(tmp_path, capsys):
    a, b = tmp_path / "a.pic", tmp_path / "b.pic"
    a.write_text("0\n1\n")
    b.write_text("10\n01\n")
    assert run_cli(["concat", "col", str(a), str(b)]) == (0, "010\n101\n")
    b.write_text("1\n")
    assert run_cli(["concat", "col", str(a), str(b)]) == (2, "")
    assert capsys.readouterr().err == "error: col concat needs equal row counts (2 vs 1)\n"


def test_concat_diag_cap(tmp_path):
    a = tmp_path / "a.pic"
    b = tmp_path / "b.pic"
    a.write_text("0\n")
    b.write_text("0\n")
    status, out = run_cli(["concat", "diag", str(a), str(b)])
    assert status == 0
    assert out.startswith("count: 1\n")  # only '0' occurs, so fillers are forced
    status, _ = run_cli(["concat", "diag", str(a), str(b), "--cap", "0"])
    assert status == 2


def test_concat_diag_has_a_default_cap(tmp_path, capsys):
    # two 4x4 pictures leave 32 free filler cells, 2**32 words: past the
    # default cap, so the verb exits 2 before building any of them
    paths = {}
    for name, rows in {"a44": ["0101", "1100", "0011", "1010"], "b44": ["1111", "0000", "1010", "0101"],
                       "a23": ["010", "101"], "b32": ["01", "10", "11"]}.items():
        paths[name] = tmp_path / f"{name}.pic"
        paths[name].write_text("\n".join(rows) + "\n")
    start = time.perf_counter()
    status, out = run_cli(["concat", "diag", str(paths["a44"]), str(paths["b44"])])
    assert time.perf_counter() - start < 0.5
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: diagonal filler set of 2**32 members exceeds the cap of {cli.DIAG_CAP}\n"
    )
    # a 2x3 and a 3x2 picture leave 13 free cells: all 8,192 words print
    status, out = run_cli(["concat", "diag", str(paths["a23"]), str(paths["b32"])])
    assert status == 0
    assert out.startswith("count: 8192\n")
    words = out.split("\n\n")[1:]
    assert len(words) == len(set(words)) == 8192
    assert all(w.startswith("010") and w.rstrip("\n").endswith("11") for w in words)


def test_construct_ibr_and_witness(tmp_path, frz_path):
    out_path = tmp_path / "ibr.aut"
    status, out = run_cli(["construct", "ibr", frz_path, "-o", str(out_path)])
    assert status == 0
    assert f"written: {out_path}" in out
    load_automaton(out_path)

    wpath = tmp_path / "tlo.aut"
    status, _ = run_cli(["construct", "witness", "top-left-one", "-o", str(wpath)])
    assert status == 0
    assert load_automaton(wpath).name == "top-left-one"

    fpath = tmp_path / "fam.pics"
    status, out = run_cli(["construct", "witness", "thm9-X(2)", "-o", str(fpath)])
    assert status == 0
    assert "words: 16" in out


def test_construct_unary_row_and_equiv(tmp_path):
    a_path, b_path, m_path = (tmp_path / n for n in ("a.aut", "b.aut", "m.aut"))
    save_automaton(u_one_row(), a_path)
    save_automaton(u_all_rows(), b_path)
    status, _ = run_cli(["construct", "unary-row", str(a_path), str(b_path), "-o", str(m_path)])
    assert status == 0
    status, out = run_cli([
        "equiv", str(m_path), "--against-concat", "row", str(a_path), str(b_path),
        "--max-rows", "5", "--max-cols", "5",
    ])
    assert status == 0
    assert out == "verdict: ok\n"


def test_equiv_against_aut_counterexample(tmp_path, frz_path):
    other = tmp_path / "tlo.aut"
    save_automaton(build_witness("top-left-one"), other)
    status, out = run_cli([
        "equiv", frz_path, "--against-aut", str(other), "--max-rows", "2", "--max-cols", "2",
    ])
    assert status == 1
    assert out.startswith("verdict: counterexample\n")
    assert "expected:" in out and "got:" in out


def test_refute_reports_counterexample(tmp_path, frz_path):
    status, out = run_cli([
        "refute", frz_path, "--target-concat", "row", frz_path, frz_path,
        "--max-rows", "3", "--max-cols", "3",
    ])
    assert status == 1
    assert out.startswith("verdict: counterexample\n")


def test_refute_ok_for_correct_construction(tmp_path):
    a_path, b_path, m_path = (tmp_path / n for n in ("a.aut", "b.aut", "m.aut"))
    save_automaton(u_one_row(), a_path)
    save_automaton(u_all_rows(), b_path)
    run_cli(["construct", "unary-row", str(a_path), str(b_path), "-o", str(m_path)])
    status, out = run_cli([
        "refute", str(m_path), "--target-concat", "row", str(a_path), str(b_path),
        "--max-rows", "4", "--max-cols", "4",
    ])
    assert status == 0
    assert out == "verdict: no-counterexample\n"


def test_equiv_needs_exactly_one_target(frz_path, capsys):
    both = ["--against-aut", frz_path, "--against-concat", "row", frz_path, frz_path]
    for extra in ([], both):
        assert run_cli(["equiv", frz_path, *extra, "--max-rows", "1", "--max-cols", "1"]) == (2, "")
        assert capsys.readouterr().err == "error: need exactly one of --against-aut / --against-concat\n"


def test_construct_with_the_wrong_number_of_files(tmp_path, frz_path, capsys):
    out_path = tmp_path / "o.aut"
    for kind, files, arity in (("ibr", [frz_path, frz_path], 1), ("diag", [frz_path], 2)):
        assert run_cli(["construct", kind, *files, "-o", str(out_path)]) == (2, "")
        assert capsys.readouterr().err == f"error: construct {kind} takes {arity} automaton file(s)\n"
    assert not out_path.exists()


def test_construct_reports_the_first_factor_the_construction_refuses(tmp_path, capsys):
    # each construction checks its factors in order, so a valid three-way
    # first factor is refused before a malformed second one is read
    h_path, bad_path, out_path = (tmp_path / n for n in ("h.aut", "bad.aut", "o.aut"))
    save_automaton(Automaton2D(
        "h", "3W", "det", Alphabet(("a",)), ("q0", "acc"), "q0", "acc",
        make_delta([("q0", "a", "q0", "L"), ("q0", "#", "acc", "D")]),
    ), h_path)
    bad_path.write_text(
        "automaton bad\nvariant 2W\nmode det\nalphabet a\nstates q0 acc\n"
        "initial q0\naccept acc\nq0 a -> zz R\nq0 # -> acc R\n"
    )
    two_way_only = "error: 'h': operation defined for two-way machines only\n"
    bad_first = "error: invalid automaton 'bad': unknown target state 'zz' at (q0,'a')\n"
    for kind, files, err in (
        ("diag", [h_path, bad_path], two_way_only),
        ("diag-sep", [h_path, bad_path], two_way_only),
        ("unary-row", [h_path, bad_path], two_way_only),
        ("unary-col", [h_path, bad_path], "error: cannot transpose a three-way machine\n"),
        ("diag", [bad_path, h_path], bad_first),
        ("unary-col", [bad_path, h_path], bad_first),
    ):
        assert run_cli(["construct", kind, *map(str, files), "-o", str(out_path)]) == (2, ""), kind
        assert capsys.readouterr().err == err, (kind, files)
    assert not out_path.exists()


def test_construct_witness_takes_one_name(tmp_path, capsys):
    # a witness name is construct's one input like a factor file is, so a
    # wrong count is an input error and writes nothing
    out_path = tmp_path / "w.aut"
    assert run_cli(["construct", "witness", "first-row-zeros", "top-left-one", "-o", str(out_path)]) == (2, "")
    assert capsys.readouterr().err == "error: construct witness takes 1 witness name\n"
    assert run_cli(["construct", "witness", "-o", str(out_path)]) == (2, "")
    assert capsys.readouterr().err.endswith(
        "pictomata construct: error: the following arguments are required: inputs\n"
    )
    assert not out_path.exists()


def test_unknown_concat_kind_is_a_usage_error(tmp_path, frz_path, capsys):
    for argv in (["equiv", frz_path, "--against-concat", "stack", frz_path, frz_path],
                 ["refute", frz_path, "--target-concat", "stack", frz_path, frz_path]):
        status, out = run_cli([*argv, "--max-rows", "2", "--max-cols", "2"])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == "error: unknown concat kind 'stack'; one of row, col, diag\n"


def test_both_concat_verbs_parse_the_kind_before_loading_the_factors(tmp_path, frz_path, capsys):
    # equiv --against-concat and refute run the same refute call, so a bad
    # kind and a missing factor file give one error from either verb
    missing = str(tmp_path / "missing.aut")
    for argv in (["equiv", frz_path, "--against-concat", "stack", missing, frz_path],
                 ["refute", frz_path, "--target-concat", "stack", missing, frz_path]):
        status, out = run_cli([*argv, "--max-rows", "2", "--max-cols", "2"])
        assert (status, out) == (2, ""), argv
        assert capsys.readouterr().err == "error: unknown concat kind 'stack'; one of row, col, diag\n", argv


def test_a_candidate_over_fewer_symbols_is_an_input_error(tmp_path, capsys):
    # c accepts every {0} picture and o every {0,1} one; tall0 accepts the
    # {0} pictures of two or more rows, which over {0} alone are exactly
    # L(o)L(o).  Swept over its own alphabet, each candidate agrees with
    # its target, yet misses every word holding a 1 (01, or 1 on 1)
    zero = Alphabet(("0",))
    machines = {
        "c": Automaton2D("c", "2W", "det", zero, ("q0",), "q0", "q0", {}),
        "o": Automaton2D("o", "2W", "det", Alphabet(("0", "1")), ("q0",), "q0", "q0", {}),
        "tall0": Automaton2D("tall0", "2W", "det", zero, ("q0", "q1", "acc"), "q0", "acc",
                             make_delta([("q0", "0", "q1", "D"), ("q1", "0", "acc", "R")])),
    }
    path = {}
    for name, m in machines.items():
        path[name] = str(tmp_path / f"{name}.aut")
        save_automaton(m, path[name])
    bounds = ["--max-rows", "2", "--max-cols", "2"]
    for cand, argv in (
        ("c", ["equiv", path["c"], "--against-aut", path["o"]]),
        ("tall0", ["equiv", path["tall0"], "--against-concat", "row", path["o"], path["o"]]),
        ("tall0", ["refute", path["tall0"], "--target-concat", "row", path["o"], path["o"]]),
    ):
        assert run_cli([*argv, *bounds]) == (2, ""), argv
        assert capsys.readouterr().err == (
            f"error: candidate '{cand}' reads symbols ['0'], target 'o' reads ['0', '1']\n"
        )


def test_lemma2_check(tmp_path):
    from corpus import boustro3w

    apath = tmp_path / "b3.aut"
    ppath = tmp_path / "w.pic"
    save_automaton(boustro3w(), apath)
    ppath.write_text("000\n000\n")
    status, out = run_cli(["lemma2-check", str(apath), str(ppath), "--row", "1"])
    assert status == 0
    assert out.startswith("departures: 1\n")
    assert "ok=true" in out


def test_lemma2_check_exits_1_on_a_far_departure(tmp_path, monkeypatch):
    # the lemma rules such a departure out, so it is staged: one departure
    # that touched the first symbol yet leaves beyond n_states + 1 of a marker
    from corpus import boustro3w
    from pictomata import Departure, onedim

    apath, ppath = tmp_path / "b3.aut", tmp_path / "w.pic"
    save_automaton(boustro3w(), apath)
    ppath.write_text("0" * 20 + "\n")
    far = [Departure(column=10, visited_first=True, visited_last=False)]
    monkeypatch.setattr(onedim, "downward_departures", lambda m2, w, i: far)
    status, out = run_cli(["lemma2-check", str(apath), str(ppath), "--row", "1"])
    assert (status, out) == (1, "departures: 1\ndeparture: col=10 visited_first=true visited_last=false ok=false\n")


def test_lemma2_check_on_a_row_never_left(tmp_path):
    apath, ppath = tmp_path / "h.aut", tmp_path / "w.pic"
    apath.write_text(_AUT_3W)  # no transitions: the run halts where it starts
    ppath.write_text("00\n00\n")
    assert run_cli(["lemma2-check", str(apath), str(ppath), "--row", "1"]) == (0, "departures: 0\n")


def test_rowsim_and_to_oneway(tmp_path):
    from corpus import t9a

    apath = tmp_path / "a3.aut"
    save_automaton(t9a(), apath)
    npath = tmp_path / "n.aut"
    status, out = run_cli([
        "rowsim", str(apath), "--entry-state", "q0", "--side", "left",
        "--offset", "1", "-o", str(npath),
    ])
    assert status == 0
    n1 = load_automaton_1d(npath)
    opath = tmp_path / "ow.aut"
    status, out = run_cli(["to-oneway", str(npath), "-o", str(opath)])
    assert status == 0
    ow = load_automaton_1d(opath)
    for s in ("", "0", "00", "01", "10"):
        assert simulate_1d(ow, s) == simulate_1d(n1, s)


def test_to_oneway_corpus_round_trip(tmp_path):
    m = corpus_1d()[0]
    path = tmp_path / "m.aut"
    save_automaton_1d(m, path)
    out_path = tmp_path / "m1w.aut"
    status, _ = run_cli(["to-oneway", str(path), "-o", str(out_path)])
    assert status == 0


def test_bound_output():
    status, out = run_cli(["bound", "3"])
    assert status == 0
    assert out.splitlines()[0] == "h(3) = 57"


def test_usage_error_status():
    status, _ = run_cli(["no-such-command"])
    assert status == 2
    status, _ = run_cli(["equiv", "x.aut", "--max-rows", "2", "--max-cols", "2"])
    assert status == 2


def test_reports_deterministic(frz_path):
    _, first = run_cli(["enum", frz_path, "--max-rows", "2", "--max-cols", "2"])
    _, second = run_cli(["enum", frz_path, "--max-rows", "2", "--max-cols", "2"])
    assert first == second


@pytest.mark.parametrize(
    "verb",
    [
        pytest.param("validate", id="2d-automaton"),
        pytest.param("to-oneway", id="1d-automaton"),
        pytest.param("run", id="picture"),
    ],
)
def test_files_that_are_not_utf8_exit_2(tmp_path, frz_path, capsys, verb):
    path = tmp_path / "bin.dat"
    path.write_bytes(b"\xff\xfe\n")
    argv = {
        "validate": ["validate", str(path)],
        "to-oneway": ["to-oneway", str(path), "-o", str(tmp_path / "o.aut")],
        "run": ["run", frz_path, str(path)],
    }[verb]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


def test_enum_over_the_budget_exits_2_promptly(frz_path, capsys):
    start = time.perf_counter()
    status, out = run_cli(["enum", frz_path, "--max-rows", "200", "--max-cols", "200"])
    assert time.perf_counter() - start < 0.5
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == "error: pictures within 200x200 exceed the budget of 10000000\n"


def test_bound_past_the_printable_values_exits_2_promptly(capsys):
    # h(2n+3) passes Python's 4,300-digit int-to-str limit from n = 684
    # on, and for large n computing it alone takes seconds
    status, out = run_cli(["bound", str(cli.BOUND_MAX_N)])
    assert status == 0 and out.startswith(f"h({cli.BOUND_MAX_N}) = ")
    for n in (cli.BOUND_MAX_N + 1, 700, 10**6, 10**9):
        start = time.perf_counter()
        assert run_cli(["bound", str(n)]) == (2, "")
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            f"error: bound {n}: h(2n+3) has too many digits to print; n is at most {cli.BOUND_MAX_N}\n"
        )


def test_witness_family_over_the_cap_exits_2_promptly(tmp_path, capsys):
    # thm9-X(k) has 4**k words; past 4**8 none is built and no file written
    path = tmp_path / "fam.pics"
    assert run_cli(["construct", "witness", "thm9-X(8)", "-o", str(path)]) == (
        0, f"written: {path}\nwords: 65536\n"
    )
    path.unlink()
    for k in (9, 40):
        start = time.perf_counter()
        assert run_cli(["construct", "witness", f"thm9-X({k})", "-o", str(path)]) == (2, "")
        assert time.perf_counter() - start < 1.0
        assert not path.exists()
        assert capsys.readouterr().err == (
            f"error: family thm9-X({k}) of 4**{k} words exceeds the cap of 65536\n"
        )
    # a k past the 4,300 digits int() reads is refused before it is parsed
    start = time.perf_counter()
    assert run_cli(["construct", "witness", f"thm9-X({'9' * 5000})", "-o", str(path)]) == (2, "")
    assert time.perf_counter() - start < 1.0
    assert not path.exists()
    assert capsys.readouterr().err == "error: family thm9-X(k) with a k of 5000 digits exceeds the cap of 65536\n"


def test_one_parser_serves_every_call_of_a_process(frz_path, capsys, monkeypatch):
    # dispatch reuses one parser; a valid call, an argparse error and -h
    # leave it as they found it, so each call prints what a fresh parser
    # prints, and the valid call after them what it printed before them
    calls = [
        ["enum", frz_path, "--max-rows", "2", "--max-cols", "2"],
        ["enum", frz_path, "--max-rows", "two", "--max-cols", "2"],
        ["enum", "-h"],
        ["enum", frz_path, "--max-rows", "2", "--max-cols", "2"],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            status = dispatch(argv)
            seen.append((status, *capsys.readouterr()))
        return seen

    assert cli._parser() is cli._parser()
    shared = outcomes()
    (ok, out, _), (bad, _, err), (helped, usage, _), again = shared
    assert (ok, bad, helped) == (0, 2, 0)
    assert out.startswith("count: ")
    assert err.startswith("usage: pictomata enum ") and "invalid int value: 'two'" in err
    assert usage.startswith("usage: pictomata enum ")
    assert again == shared[0]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert outcomes() == shared
