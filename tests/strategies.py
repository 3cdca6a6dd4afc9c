"""Hypothesis strategies shared by the property-based tests.

The logic strategies generate against the *tiny* logic schema (two
nominal, two small integer attributes) so that satisfiability and
implication verdicts can be cross-checked by brute-force enumeration of
all possible records. The cell strategies at the end generate stored
cell contents that stress the ingest converters.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from hypothesis import strategies as st

from repro.logic import (
    And,
    Atom,
    Eq,
    EqAttr,
    Formula,
    Gt,
    GtAttr,
    IsNotNull,
    IsNull,
    Lt,
    LtAttr,
    Ne,
    NeAttr,
    Or,
    Rule,
)
from repro.schema import Schema, nominal, numeric

#: The schema every generated formula refers to.
TINY = Schema(
    [
        nominal("A", ["a", "b", "c"]),
        nominal("B", ["x", "y"]),
        numeric("N", 0, 3, integer=True),
        numeric("M", 0, 3, integer=True),
    ]
)

_NOMINAL = {"A": ["a", "b", "c"], "B": ["x", "y"]}
_NUMERIC = {"N": [0, 1, 2, 3], "M": [0, 1, 2, 3]}
_ALL_ATTRS = ["A", "B", "N", "M"]


def records() -> st.SearchStrategy[dict]:
    """Random records over the tiny schema, nulls included."""
    return st.fixed_dictionaries(
        {
            "A": st.sampled_from(["a", "b", "c", None]),
            "B": st.sampled_from(["x", "y", None]),
            "N": st.sampled_from([0, 1, 2, 3, None]),
            "M": st.sampled_from([0, 1, 2, 3, None]),
        }
    )


def all_records() -> Iterator[dict]:
    """Exhaustive enumeration of every record over the tiny schema."""
    for a, b, n, m in itertools.product(
        ["a", "b", "c", None], ["x", "y", None], [0, 1, 2, 3, None], [0, 1, 2, 3, None]
    ):
        yield {"A": a, "B": b, "N": n, "M": m}


def propositional_atoms() -> st.SearchStrategy[Atom]:
    nominal_eq = st.builds(
        lambda attr, idx: Eq(attr, _NOMINAL[attr][idx % len(_NOMINAL[attr])]),
        st.sampled_from(["A", "B"]),
        st.integers(0, 2),
    )
    nominal_ne = st.builds(
        lambda attr, idx: Ne(attr, _NOMINAL[attr][idx % len(_NOMINAL[attr])]),
        st.sampled_from(["A", "B"]),
        st.integers(0, 2),
    )
    numeric_cmp = st.builds(
        lambda attr, value, op: op(attr, value),
        st.sampled_from(["N", "M"]),
        st.integers(0, 3),
        st.sampled_from([Eq, Ne, Lt, Gt]),
    )
    null_test = st.builds(
        lambda attr, op: op(attr),
        st.sampled_from(_ALL_ATTRS),
        st.sampled_from([IsNull, IsNotNull]),
    )
    return st.one_of(nominal_eq, nominal_ne, numeric_cmp, null_test)


def relational_atoms() -> st.SearchStrategy[Atom]:
    nominal_rel = st.builds(
        lambda op: op("A", "B"), st.sampled_from([EqAttr, NeAttr])
    )
    numeric_rel = st.builds(
        lambda op, flip: op("M", "N") if flip else op("N", "M"),
        st.sampled_from([EqAttr, NeAttr, LtAttr, GtAttr]),
        st.booleans(),
    )
    return st.one_of(nominal_rel, numeric_rel)


def atoms() -> st.SearchStrategy[Atom]:
    """Random atomic TDG-formulae over the tiny schema."""
    return st.one_of(propositional_atoms(), relational_atoms())


def _connect(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
    parts = st.lists(children, min_size=2, max_size=3)

    def build(kind_and_parts):
        kind, part_list = kind_and_parts
        distinct = []
        for part in part_list:
            if part not in distinct:
                distinct.append(part)
        if len(distinct) < 2:
            return distinct[0]
        return And(*distinct) if kind == "and" else Or(*distinct)

    return st.tuples(st.sampled_from(["and", "or"]), parts).map(build)


def formulas(max_depth: int = 3) -> st.SearchStrategy[Formula]:
    """Random TDG-formulae of bounded nesting depth."""
    return st.recursive(atoms(), _connect, max_leaves=6)


def rules() -> st.SearchStrategy[Rule]:
    """Random (not necessarily natural) TDG-rules."""
    return st.builds(Rule, formulas(), formulas())


# -- stored cells --------------------------------------------------------------

#: Null markers the cell strategies are built around.
NULL_MARKERS = ("", "NULL")

#: Cell text at the edges of what ``int``/``float``/``date.fromisoformat``
#: accept: whitespace, signs, digit separators, non-ASCII digits,
#: non-finite and exponent spellings, compact and impossible dates, and
#: near-misses of the null markers.
ADVERSARIAL_CELL_TEXT = (
    "", " ", "NULL", "null", "Null", " NULL", "NULL ", "\tNULL", "N/A", "-",
    "7", " 7", "7 ", "\t7", "+7", "-7", "07", "1_000", "1__000", "_1", "1_",
    "\u0663", "\u0661\u0662", "\u0663.\u0665", "\uff17",
    "nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "1e3", "1E3",
    "1e400", "-1e-3", "1.0", "1.", ".5", "-0.0", "0x10", "7.25",
    "99999999999999999999999", "-99999999999999999999999.5",
    "2001-02-17", "20010217", "2001-02-30", "0000-01-01", "9999-12-31",
    "2001-W07-6", "2001-048", " 2001-02-17", "2001-02-17T00:00", "2001-2-7",
    "x", "y", "zzz", "a,b", 'q"uote', "two\nlines",
)


def cell_texts() -> st.SearchStrategy[str]:
    """Stored text cells (CSV): the adversarial spellings above, plus
    short arbitrary text."""
    return st.one_of(
        st.sampled_from(ADVERSARIAL_CELL_TEXT),
        st.text(
            st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"),
            max_size=6,
        ),
    )


#: Natively typed cells next to the text spellings: ints beyond 2**53,
#: integral and fractional floats, signed zero, non-finite floats,
#: booleans, null.
TYPED_CELL_SAMPLES = (
    None, 0, 7, -7, 2**53 + 1, 2**70, 1e3, 7.0, 7.25, -0.0,
    float("nan"), float("inf"), True, False,
)


def typed_cells() -> st.SearchStrategy[object]:
    """Natively typed stored cells (JSONL objects, SQLite values): text,
    ints of any size, floats including non-finite ones, booleans, null."""
    return st.one_of(
        st.sampled_from(TYPED_CELL_SAMPLES),
        cell_texts(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=True, allow_infinity=True),
    )
