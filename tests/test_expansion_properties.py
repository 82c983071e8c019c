"""Property-based check of the table's in-place unit rows against the oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from crisismon import EmbeddingTable

from oracles import naive_units

# Components whose rows overflow or underflow a plain norm, zero rows, and
# the non-finite values only the constructor (never the loader) accepts.
SPECIAL = [0.0, -0.0, 1e200, -1e300, 1e-170, 5e-324, np.inf, -np.inf, np.nan]
components = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))


@st.composite
def tables(draw):
    rows, dim = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    # Each row has one scale factor, so a whole row can be huge or tiny.
    scales = draw(st.lists(st.sampled_from([1.0, 1e250, 1e-250, 0.0]),
                           min_size=rows, max_size=rows))
    matrix = np.array([[draw(components) * scale for _ in range(dim)] for scale in scales])
    # Three letters force duplicate tokens, shadowed rows included.
    tokens = draw(st.lists(st.sampled_from("abc"), min_size=rows, max_size=rows))
    return tokens, matrix


@settings(max_examples=400, deadline=None)
@given(tables())
def test_unit_rows_equal_the_oracle_bit_for_bit(table):
    tokens, matrix = table
    with np.errstate(invalid="ignore", over="ignore"):
        got = EmbeddingTable(tokens, matrix)
        units, ok = naive_units(matrix)
    assert np.array_equal(got._units.view(np.int64), units.view(np.int64))
    live = np.zeros(len(tokens), dtype=bool)
    live[list({t: i for i, t in enumerate(tokens)}.values())] = True
    assert got._candidate.tolist() == (ok & live).tolist()


@settings(max_examples=100, deadline=None)
@given(tables())
def test_the_callers_matrix_is_left_unchanged(table):
    tokens, matrix = table
    before = matrix.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        got = EmbeddingTable(tokens, matrix)
    assert np.array_equal(matrix.view(np.int64), before.view(np.int64))
    assert not np.shares_memory(got._units, matrix)
