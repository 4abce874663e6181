"""Toolkit for two-dimensional (picture) automata: restricted head
models, exact simulation, concatenation operations, closure
constructions, and brute-force oracles for checking them."""

from .automaton import (
    Automaton2D,
    load_automaton,
    make_delta,
    parse_automaton,
    save_automaton,
    serialize_automaton,
    transpose_automaton,
    validate,
)
from .concat import (
    ConcatKind,
    ConcatOracle,
    col_concat,
    concat_membership,
    diag_concat_words,
    row_concat,
    split_separated,
)
from .construct import (
    CaseTag,
    border_normalize,
    build_witness,
    diag_concat_nondet_2w,
    diag_concat_separated,
    thm9_x_family,
    to_ibr,
    unary_col_concat,
    unary_row_concat,
)
from .errors import (
    AlphabetError,
    CapacityError,
    DimensionError,
    ModeError,
    OutOfBandError,
    PreconditionError,
    ToolkitError,
    VariantError,
    WindowError,
)
from .onedim import (
    Automaton1D,
    Departure,
    downward_departures,
    kapoutsis_bound,
    row_departure_oracle,
    row_restriction,
    simulate_1d,
    gadget_k,
    two_way_to_one_way,
)
from .oracle import (
    Counterexample,
    DimBounds,
    enumerate_pictures,
    equivalent_up_to,
    flip_attack,
    language_up_to,
    refute,
    verify_counterexample,
)
from .picture import (
    Alphabet,
    BOUNDARY,
    Picture,
    Position,
    format_picture,
    load_picture,
    parse_picture,
    picture_of,
    read_cell,
    subpicture,
    transpose,
)
from .simulate import (
    Configuration,
    RowTransfer,
    RunResult,
    RunTrace,
    accepting_runs,
    accepts,
    first_accepting_trace,
    format_trace,
    replay_accepts,
    run_deterministic,
)

__version__ = "0.1.0"
