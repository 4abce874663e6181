import dataclasses
import hashlib
import inspect
import random
from itertools import product

import pytest

from corpus import (
    AB01,
    UNARY,
    build_separated,
    corpus_2w,
    diag_pairs,
    is_ibr,
    random_2d,
    separated_layouts,
    separated_member,
    separated_pairs,
    u_all_rows,
    u_all_right,
    u_one_row,
    unary_pairs,
)
from pictomata import (
    Alphabet,
    AlphabetError,
    Automaton2D,
    CaseTag,
    ConcatKind,
    DimBounds,
    Picture,
    ToolkitError,
    VariantError,
    accepting_runs,
    accepts,
    border_normalize,
    build_witness,
    concat_membership,
    diag_concat_nondet_2w,
    diag_concat_separated,
    equivalent_up_to,
    language_up_to,
    make_delta,
    picture_of,
    run_deterministic,
    serialize_automaton,
    split_separated,
    subpicture,
    thm9_x_family,
    to_ibr,
    transpose_automaton,
    unary_col_concat,
    unary_row_concat,
    validate,
)
from pictomata.automaton import boundary_reach, require_valid


def _mk(name, states, init, acc, trans, mode="det", ab=AB01, variant="2W"):
    return Automaton2D(name, variant, mode, ab, tuple(states), init, acc, make_delta(trans))


def test_boundary_reach_set_basics():
    a = _mk("r1", ("q0", "q1", "acc"), "q0", "acc",
            [("q0", "#", "acc", "D"), ("q1", "0", "q0", "R")])
    reach = boundary_reach(a)
    assert "acc" in reach          # zero-length reachability
    assert "q0" in reach           # one marker step
    assert "q1" not in reach       # its only step reads a word symbol


def test_boundary_reach_set_no_marker_moves():
    a = _mk("r2", ("q0", "acc"), "q0", "acc", [("q0", "0", "acc", "R")])
    assert boundary_reach(a) == {"acc"}


def test_boundary_reach_requires_two_way():
    a = _mk("r3", ("q0", "acc"), "q0", "acc", [], variant="3W")
    with pytest.raises(VariantError):
        to_ibr(a)


def test_boundary_reach_closure_ignores_the_variant():
    # the closure itself reads only '#' transitions; the 2W precondition
    # belongs to to_ibr, which uses it
    trans = [("q0", "#", "q1", "L"), ("q1", "#", "acc", "D"), ("q2", "0", "acc", "R")]
    for variant in ("2W", "3W", "4W"):
        a = _mk("r4", ("q0", "q1", "q2", "acc"), "q0", "acc",
                [t if variant != "2W" else (*t[:3], "R") for t in trans], variant=variant)
        assert boundary_reach(a) == {"q0", "q1", "acc"}


def test_to_ibr_language_preserved_on_corpus():
    bounds = DimBounds(3, 3)
    for a in corpus_2w():
        converted = to_ibr(a)
        assert validate(converted) == []
        assert is_ibr(converted)
        assert equivalent_up_to(converted, lambda w: accepts(a, w), bounds) is None, a.name


def test_to_ibr_idempotent_up_to_naming():
    for a in corpus_2w():
        once = to_ibr(a)
        twice = to_ibr(once)
        assert twice.delta == once.delta
        assert equivalent_up_to(twice, lambda w: accepts(once, w), DimBounds(3, 3)) is None


def test_to_ibr_short_circuits_double_marker_machine():
    two_hash = _mk("two_hash", ("q0", "q1", "acc"), "q0", "acc",
                   [("q0", "0", "q0", "R"), ("q0", "1", "q0", "R"),
                    ("q0", "#", "q1", "D"), ("q1", "#", "acc", "D")])
    converted = to_ibr(two_hash)
    w = picture_of(["01"])
    long_run = accepting_runs(two_hash, w, limit=1)[0]
    short_run = accepting_runs(converted, w, limit=1)[0]
    assert len(short_run) < len(long_run)
    assert equivalent_up_to(converted, lambda v: accepts(two_hash, v), DimBounds(3, 3)) is None


def test_ibr_accepting_runs_read_marker_at_most_once():
    from pictomata import read_cell

    for a in corpus_2w():
        converted = to_ibr(a)
        words = [picture_of(["aa", "aa"])] if a.alphabet.unary else [
            picture_of(["00", "00"]), picture_of(["01", "10"])
        ]
        for w in words:
            for trace in accepting_runs(converted, w, limit=8):
                marker_reads = sum(
                    1
                    for c in trace[:-1]
                    if c.loc is None or read_cell(w, c.loc) == "#"
                )
                assert marker_reads <= 1, (a.name, trace)


def test_border_normalize_language_preserved():
    bounds = DimBounds(3, 3)
    for a in corpus_2w():
        norm = border_normalize(a)
        assert validate(norm) == []
        assert equivalent_up_to(norm, lambda w: accepts(a, w), bounds) is None, a.name
        # no acceptance on an in-word read
        assert not any(
            any(q2 == norm.accept for q2, _ in img)
            for (q, sym), img in norm.delta.items()
            if sym != "#"
        )


def test_unary_row_concat_requires_unary():
    from corpus import first_row_zeros

    with pytest.raises(AlphabetError):
        unary_row_concat(first_row_zeros(), first_row_zeros())


def test_unary_row_concat_matches_oracle():
    bounds = DimBounds(6, 6)
    for a, b in unary_pairs():
        m = unary_row_concat(a, b)
        assert validate(m) == []
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.ROW, a, b, w), bounds)
        assert ce is None, (a.name, b.name, ce and ce.word.rows)


def test_unary_row_concat_dimension_sets():
    bounds = DimBounds(6, 6)
    m = unary_row_concat(u_one_row(), u_all_rows())
    dims = {(w.m, w.n) for w in language_up_to(m, bounds)}
    assert dims == {(r, c) for r in range(2, 7) for c in range(1, 7)}
    m2 = unary_row_concat(u_one_row(), u_one_row())
    dims2 = {(w.m, w.n) for w in language_up_to(m2, bounds)}
    assert dims2 == {(2, c) for c in range(1, 7)}


def test_unary_row_concat_state_budget():
    for a, b in unary_pairs():
        m = unary_row_concat(a, b)
        qa, qb = len(a.states), len(b.states)
        phase1 = 5 * 3 * (qa + 2) * (qb + 2)
        phase2 = 2 * (qa + 2) + 2 * (qb + 2)
        assert len(m.states) <= phase1 + phase2 + 7, (a.name, b.name, len(m.states))


def test_case_tags_all_fire():
    seen: set[str] = set()
    words = [picture_of(["a" * n] * m) for m in range(1, 5) for n in range(1, 5)]
    for a, b in unary_pairs():
        m = unary_row_concat(a, b)
        for w in words:
            for trace in accepting_runs(m, w, limit=64):
                for cfg in trace:
                    tag = cfg.state.split("|", 1)[0]
                    if tag in {c.value for c in CaseTag}:
                        seen.add(tag)
        if len(seen) == len(CaseTag):
            break
    assert seen == {c.value for c in CaseTag}


def test_unary_col_concat_matches_oracle():
    bounds = DimBounds(6, 6)
    for a, b in unary_pairs():
        m = unary_col_concat(a, b)
        assert validate(m) == []
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.COL, a, b, w), bounds)
        assert ce is None, (a.name, b.name, ce and ce.word.rows)


def test_unary_col_concat_is_transpose_image():
    from pictomata import transpose

    a, b = u_all_rows(), u_all_right()
    row_m = unary_row_concat(a, b)
    col_m = unary_col_concat(a, b)
    bounds = DimBounds(5, 5)
    col_lang = language_up_to(col_m, bounds)
    row_lang = language_up_to(row_m, bounds)
    assert col_lang == {transpose(w) for w in row_lang}


def _random_unary(rng, name, states):
    """A random unary 2W machine on the given working states, in random order."""
    states = [*rng.sample(states, len(states)), "acc"]
    mode = rng.choice(["det", "nondet"])
    entries = [
        (q, sym, rng.choice(states), rng.choice("DR"))
        for q in states[:-1]
        for sym in "a#"
        for _ in range(rng.randint(0, 1 if mode == "det" else 2))
    ]
    return _mk(name, states, states[0], "acc", entries, mode=mode, ab=UNARY)


def test_unary_products_keep_states_with_joined_names_apart():
    # Joined with "|", (x|y, z) and (x, y|z) read alike; merged into one
    # state they made the row product accept aa/aa.
    a = _mk("A", ("x", "x|y", "acc"), "x", "acc",
            [("x", "#", "x", "D"), ("x", "a", "x|y", "R"), ("x|y", "#", "acc", "D")], ab=UNARY)
    b = _mk("B", ("y|z", "z", "acc"), "y|z", "acc",
            [("y|z", "#", "z", "R"), ("y|z", "a", "z", "R"), ("z", "#", "acc", "R")], ab=UNARY)
    rng = random.Random(20)
    pairs = [(a, b)] + [
        (_random_unary(rng, "A", ["x", "x|y"]), _random_unary(rng, "B", ["y|z", "z"])) for _ in range(300)
    ]
    bounds = DimBounds(4, 4)
    for a, b in pairs:
        for kind, build in ((ConcatKind.ROW, unary_row_concat), (ConcatKind.COL, unary_col_concat)):
            m = build(a, b)
            assert validate(m) == []
            ce = equivalent_up_to(m, lambda w: concat_membership(kind, a, b, w), bounds)
            assert ce is None, (kind, serialize_automaton(a), serialize_automaton(b), ce.word.rows)


def _digests(inputs) -> dict[str, str]:
    """sha256 of each builder's written products over its calls, by name."""
    out = {}
    for build, calls in inputs.items():
        digest = hashlib.sha256()
        for args in calls:
            digest.update(serialize_automaton(build(*args)).encode())
        out[build.__name__] = digest.hexdigest()
    return out


#: sha256 of the written products, recorded before the unary row product
#: was rewritten as one breadth-first walk, so that the rewrite and every
#: later one could show it kept the bytes.  A change that means to alter a
#: construction's output updates its digest and says why in CHANGES.md.
#: The tests compare whole dicts, so a failure names every moved digest.
_PRODUCT_DIGESTS = {
    "to_ibr": "f46419de46ac4e7c763fefdd5dfde140290908bb72e731a2d5cc3c234de114cd",
    "border_normalize": "3e34433b2e7bb3ffb6f31cba0865aee03924a2b32bf0b3cde4bb84adea7baae9",
    "unary_row_concat": "6a0b9ea089445c3d88a8702588709208766ae78dbfa96c273796dff95ae41a4a",
    "unary_col_concat": "fd84ad8edba5948006a04a81c9884924a19ddfc554b7c1fee9d9157585d6700d",
    "diag_concat_nondet_2w": "915972b0701151ad669e37f96b41e60b8de8a08e11580781c9d829bfb31341c9",
    "diag_concat_separated": "f19661f5778b8ed330a49000a7ca3483e69bbc74f9e71974fe4b1b620dadbe5c",
}


def test_construction_output_bytes_match_recorded_digests():
    inputs = {
        to_ibr: [(a,) for a in corpus_2w()],
        border_normalize: [(a,) for a in corpus_2w()],
        unary_row_concat: unary_pairs(),
        unary_col_concat: unary_pairs(),
        diag_concat_nondet_2w: diag_pairs(),
        diag_concat_separated: separated_pairs(),
    }
    assert _digests(inputs) == _PRODUCT_DIGESTS


#: sha256 of the products of seeded random pairs.  The corpus pairs above
#: leave few states a choice of place, so these pin the state order.  The
#: unary digests were recorded before the diagonal products became one
#: breadth-first walk; the diagonal ones when those products stopped
#: sorting each state's edges and came to take them in generation order,
#: which moved their states but kept their languages, names and counts.
_RANDOM_PAIR_DIGESTS = {
    "unary_row_concat": "e18429132580ebb3a2c234ebfe7431c4746aac20ef53006e505a146576b71b11",
    "unary_col_concat": "d404745145ecec046b6af7e8efede21faeedee03a975fe2c1cd86d31cf4293b6",
    "diag_concat_nondet_2w": "af5547548a0bf105c996fd6b57381f8dc92b1712a8461ab3d9a38ed03ad8b13f",
    "diag_concat_separated": "616caa68a5fb380b03da85bf84f054e7a463c2e42d8145f3954666e78dc53f90",
}


def test_construction_output_bytes_on_random_pairs_match_recorded_digests():
    rng = random.Random(23)
    modes = ("det", "nondet")
    pairs = [(random_2d(rng, "2W", rng.choice(modes)), random_2d(rng, "2W", rng.choice(modes))) for _ in range(400)]
    unary = [
        (_random_unary(rng, "A", ["x", "x|y", "p"]), _random_unary(rng, "B", ["y|z", "z", "q0"])) for _ in range(200)
    ]
    inputs = {
        unary_row_concat: unary,
        unary_col_concat: unary,
        diag_concat_nondet_2w: pairs,
        diag_concat_separated: pairs,
    }
    assert _digests(inputs) == _RANDOM_PAIR_DIGESTS


def test_diag_concat_matches_oracle_small():
    bounds = DimBounds(3, 3)
    for a, b in diag_pairs():
        m = diag_concat_nondet_2w(a, b)
        assert validate(m) == []
        assert m.mode == "nondet"
        ce = equivalent_up_to(m, lambda w: concat_membership(ConcatKind.DIAG, a, b, w), bounds)
        assert ce is None, (a.name, b.name, ce and ce.word.rows)


def test_products_take_factors_that_list_their_symbols_in_another_order():
    # the pair check compares sets, and each product reads the symbols in
    # the first factor's order, so a factor over ("1", "0") changes neither
    # the accepted language nor, for the second factor, a byte of the file
    bounds = DimBounds(3, 3)
    for a, b in diag_pairs() + separated_pairs():
        a10, b10 = (dataclasses.replace(m, alphabet=Alphabet(("1", "0"))) for m in (a, b))
        want = language_up_to(diag_concat_nondet_2w(a, b), bounds)
        assert language_up_to(diag_concat_nondet_2w(a, b10), bounds) == want, (a.name, b.name)
        assert language_up_to(diag_concat_nondet_2w(a10, b), bounds) == want, (a.name, b.name)
        text = serialize_automaton(diag_concat_separated(a, b))
        assert serialize_automaton(diag_concat_separated(a, b10)) == text, (a.name, b.name)


def test_diag_concat_examples():
    tlo = build_witness("top-left-one")
    m = diag_concat_nondet_2w(tlo, tlo)
    for rows in (["10", "01"], ["11", "01"], ["10", "11"], ["11", "11"]):
        assert accepts(m, picture_of(rows)), rows
    assert not accepts(m, picture_of(["00", "00"]))
    assert not accepts(m, picture_of(["10", "00"]))


def test_diag_concat_separated_layout_roundtrip():
    w, v = picture_of(["01"]), picture_of(["1", "0"])
    p = build_separated(w, v, picture_of(["0"]), picture_of(["00", "00"]))
    assert p.rows == ("01#0", "####", "00#1", "00#0")
    sr, sc, tl, br = split_separated(p)
    assert (sr, sc) == (2, 3)
    assert tl == w and br == v


def test_separated_layouts_equal_checked_pictures():
    # the layouts skip Picture's checks, so each must be the picture the
    # checks would build, sizes and permission included
    count = 0
    for p in separated_layouts(4, 5, ("0", "1")):
        q = Picture(p.rows, allow_hash=True)
        assert (p.rows, p.m, p.n, p.allow_hash) == (q.rows, q.m, q.n, True)
        assert p == q
        count += 1
    assert count == sum(m * n * 2 ** ((m - 1) * (n - 1)) for m in range(1, 5) for n in range(1, 6))


def test_split_separated_rejects_malformed():
    assert split_separated(picture_of(["0"])) is None
    # separator row on the edge: an empty quadrant
    assert split_separated(picture_of(["###", "0#0", "0#0"], allow_hash=True)) is None
    # stray marker off the separators
    assert split_separated(
        picture_of(["0#0#0", "#####", "0#0#0"], allow_hash=True)
    ) is None


def _split_separated_spec(p):
    # the definition: every row and every column is tested for all '#',
    # then every cell for a stray marker, and the quadrants are copied out
    hash_rows = [i for i in range(1, p.m + 1) if all(ch == "#" for ch in p.rows[i - 1])]
    hash_cols = [
        j for j in range(1, p.n + 1) if all(row[j - 1] == "#" for row in p.rows)
    ]
    if len(hash_rows) != 1 or len(hash_cols) != 1:
        return None
    sr, sc = hash_rows[0], hash_cols[0]
    for i, j in p.positions():
        if p.rows[i - 1][j - 1] == "#" and i != sr and j != sc:
            return None
    if not (2 <= sr <= p.m - 1 and 2 <= sc <= p.n - 1):
        return None
    return sr, sc, subpicture(p, 1, sr - 1, 1, sc - 1), subpicture(p, sr + 1, p.m, sc + 1, p.n)


def _all_pictures(syms, max_cells):
    for m in range(1, max_cells + 1):
        for n in range(1, max_cells // m + 1):
            for cells in product(syms, repeat=m * n):
                s = "".join(cells)
                yield picture_of([s[i * n : (i + 1) * n] for i in range(m)], allow_hash=True)


@pytest.mark.slow
def test_split_separated_equals_its_definition():
    # every picture over {0,1,#} up to 9 cells and over {0,#} up to 12
    # (1 x n and m x 1 words, separators on an edge, two full '#' rows or
    # columns, stray '#' cells), then layouts and near-misses up to 4x4
    def view(parts):
        if parts is None:
            return None
        sr, sc, tl, br = parts
        return sr, sc, tl.rows, br.rows, tl.allow_hash, br.allow_hash

    def near_layouts():
        # every layout up to 4x4 and every copy of it with one cell changed
        for p in separated_layouts(4, 4, ("0", "1")):
            yield p
            for i, j in p.positions():
                for sym in "01#":
                    if sym != p.rows[i - 1][j - 1]:
                        yield p.with_cell((i, j), sym)

    seen = {True: 0, False: 0}
    for pictures in (
        _all_pictures(("0", "1", "#"), 9),
        _all_pictures(("0", "#"), 12),
        near_layouts(),
    ):
        for p in pictures:
            want = view(_split_separated_spec(p))
            assert view(split_separated(p)) == want, p.rows
            seen[want is not None] += 1
    assert seen[True] > 1000 and seen[False] > 100_000


def test_separated_layouts_order_matches_definition():
    def spec(max_m, max_n, syms):
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                for sr in range(1, m + 1):
                    for sc in range(1, n + 1):
                        free = [
                            (i, j)
                            for i in range(1, m + 1)
                            for j in range(1, n + 1)
                            if i != sr and j != sc
                        ]
                        for fill in product(syms, repeat=len(free)):
                            cells = dict(zip(free, fill))
                            rows = tuple(
                                "".join(
                                    "#" if (i == sr or j == sc) else cells[(i, j)]
                                    for j in range(1, n + 1)
                                )
                                for i in range(1, m + 1)
                            )
                            yield picture_of(rows, allow_hash=True)

    want = [(p.rows, p.allow_hash) for p in spec(3, 4, ("0", "1"))]
    got = [(p.rows, p.allow_hash) for p in separated_layouts(3, 4, ("0", "1"))]
    assert len(want) > 1000
    assert got == want


def test_diag_concat_separated_accepts_unary_example():
    a = _mk("ua", ("q0", "acc"), "q0", "acc",
            [("q0", "a", "q0", "R"), ("q0", "#", "acc", "R")], ab=UNARY)
    c = diag_concat_separated(a, a)
    assert validate(c) == []
    p = picture_of(["a#a", "###", "a#a"], allow_hash=True)
    assert accepts(c, p)


def test_diag_concat_separated_matches_oracle_4x4():
    for a, b in separated_pairs():
        c = diag_concat_separated(a, b)
        assert validate(c) == []
        assert c.mode == "det"
        member = separated_member(a, b)
        for p in separated_layouts(4, 4, a.alphabet.symbols):
            assert run_deterministic(c, p).accepted == member(p), (a.name, b.name, p.rows)


def test_witness_lookup_error():
    with pytest.raises(ToolkitError):
        build_witness("no-such-witness")


def test_witness_first_row_zeros_language():
    a = build_witness("first-row-zeros")
    assert accepts(a, picture_of(["000"]))
    assert not accepts(a, picture_of(["010"]))


def test_witness_thm9_machines():
    a, b = build_witness("thm9-A"), build_witness("thm9-B")
    assert validate(a) == [] and validate(b) == []
    assert a.variant == b.variant == "3W"
    assert accepts(b, picture_of(["10", "00", "00"]))
    assert not accepts(b, picture_of(["00", "00", "00"]))


def test_witness_x_family_membership_criterion():
    a, b = build_witness("thm9-A"), build_witness("thm9-B")
    fam = thm9_x_family(2)
    assert len(fam) == 16
    assert build_witness("thm9-X(2)") == fam
    for w in fam:
        want = all(ch == "0" for ch in w.rows[3][-2:])
        assert concat_membership(ConcatKind.DIAG, a, b, w) == want, w.rows


def test_constructions_validate_clean():
    for a, b in unary_pairs()[:3]:
        assert validate(unary_row_concat(a, b)) == []
        assert validate(unary_col_concat(a, b)) == []
    for a, b in diag_pairs()[:2]:
        assert validate(diag_concat_nondet_2w(a, b)) == []
    for a, b in separated_pairs():
        got = diag_concat_separated(a, b)
        assert validate(got) == []
        assert got.variant == "2W"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: diag_concat_nondet_2w(build_witness("first-row-zeros"), dataclasses.replace(
                build_witness("first-row-zeros"), alphabet=Alphabet(("0", "2")))),
            AlphabetError,
            "factor machines must share one alphabet",
        ),
        (lambda: thm9_x_family(0), ToolkitError, "family parameter must be at least 1"),
    ],
    ids=["factors-over-other-symbols", "empty-family"],
)
def test_construction_preconditions_raise_their_errors(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error and str(got.value) == message


#: Two malformed machines over {a}: a move to the undeclared state ``zz``,
#: and a move in the unknown direction ``Z``.
_MALFORMED = [
    _mk("to_zz", ("q0", "acc"), "q0", "acc", [("q0", "a", "zz", "R"), ("q0", "#", "acc", "R")], ab=UNARY),
    _mk("move_Z", ("q0", "acc"), "q0", "acc", [("q0", "a", "q0", "Z"), ("q0", "#", "acc", "R")], ab=UNARY),
]


@pytest.mark.parametrize("bad", _MALFORMED, ids=lambda m: m.name)
@pytest.mark.parametrize(
    "transform",
    [to_ibr, border_normalize, transpose_automaton, unary_row_concat, unary_col_concat,
     diag_concat_nondet_2w, diag_concat_separated],
    ids=lambda f: f.__name__,
)
def test_every_transform_rejects_a_malformed_machine_as_given(transform, bad):
    # each transform checks its inputs itself, with require_valid's message
    # naming the machine as it was passed in, whichever factor it is
    with pytest.raises(ToolkitError) as want:
        require_valid(bad)
    good = u_all_rows()
    calls = [(bad,)] if len(inspect.signature(transform).parameters) == 1 else [(bad, good), (good, bad)]
    for args in calls:
        with pytest.raises(ToolkitError) as got:
            transform(*args)
        assert type(got.value) is ToolkitError and str(got.value) == str(want.value), args
