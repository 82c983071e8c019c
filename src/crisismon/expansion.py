"""Embedding-based lexicon expansion and category association.

Seed lexicons are contextualized by pulling, for every single-token seed
term, its k nearest neighbors in an embedding table (cosine similarity,
k=10 by default). The expanded lexicon is then ranked against a category
set by counting shared single-token terms, keeping the top-m categories
(m=10 by default); those become the construct's markers.

Embedding tables use the common text format: a "V D" header line followed
by V rows of "token v1 ... vD". Multiword seed terms pass through
unexpanded; out-of-vocabulary seeds are kept but contribute no neighbors.
"""

from __future__ import annotations

import os
import stat
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FormatError, open_text
from .lexicon import CategorySet, Lexicon, MarkerMapping, Term

if TYPE_CHECKING:
    import numpy as np


# Components per block of rows that one ``np.linalg.norm`` call squares, or
# one ``np.isfinite`` call checks, so the transient beside a table's one
# V x D matrix stays small whatever D is.
_CHUNK = 1 << 15


class EmbeddingTable:
    """Token -> unit vector map for cosine queries.

    Only the unit rows are kept, in one V x D float64 matrix (about V*D*8
    bytes); the raw vectors are not. Zero-norm vectors are loaded (the token
    exists) but are unusable as queries and never returned as neighbors.
    """

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        import numpy as np

        self._build(tokens, np.array(matrix, dtype=np.float64))

    @classmethod
    def _adopt(cls, tokens: list[str], matrix: np.ndarray) -> EmbeddingTable:
        """A table over a float64 matrix no one else holds, normalized in place."""
        table = cls.__new__(cls)
        table._build(tokens, matrix)
        return table

    def _build(self, tokens: list[str], units: np.ndarray) -> None:
        import numpy as np

        if units.ndim != 2 or units.shape[0] != len(tokens):
            raise ValueError("matrix shape does not match token list")
        if not tokens:
            raise ValueError("empty vocabulary")
        self.dim = units.shape[1]
        self._tokens = list(tokens)
        self._index = {t: i for i, t in enumerate(tokens)}
        ok = _normalize(units)
        self._units = units
        # Rows shadowed by a later duplicate token are not legal candidates.
        live = np.zeros(len(tokens), dtype=bool)
        live[list(self._index.values())] = True
        self._candidate = live & ok
        # Lexicographic rank per row, for deterministic tie-breaking.
        order = sorted(range(len(self._tokens)), key=lambda i: self._tokens[i])
        self._token_rank = np.empty(len(order), dtype=np.int64)
        self._token_rank[order] = np.arange(len(order))

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def usable(self, token: str) -> bool:
        """Whether the token can participate in similarity queries."""
        i = self._index.get(token)
        return i is not None and bool(self._candidate[i])


def _normalize(units: np.ndarray) -> np.ndarray:
    """Scale the rows of ``units`` to unit length in place; which rows could be.

    A row whose norm is not positive (all zeros, or NaN) becomes zeros. A
    finite row's plain norm overflows to inf past about 1e154 and underflows
    to 0 below about 1e-154; such a row is scaled by its largest magnitude first.
    """
    import numpy as np

    norms = np.empty(units.shape[0])
    step = max(1, _CHUNK // max(1, units.shape[1]))
    with np.errstate(over="ignore"):
        for i in range(0, len(norms), step):
            norms[i:i + step] = np.linalg.norm(units[i:i + step], axis=1)
    odd = np.flatnonzero(np.isinf(norms) | (norms == 0.0))
    rows = units[odd]
    scale = np.abs(rows).max(axis=1)
    off = np.isfinite(scale) & (scale > 0.0)
    norms[odd[off]] = scale[off] * np.linalg.norm(rows[off] / scale[off, None], axis=1)
    ok = norms > 0.0
    np.divide(units, norms[:, None], out=units, where=ok[:, None])
    units[~ok] = 0.0
    return ok


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse the "V D" text format into an EmbeddingTable.

    The file must hold exactly V rows of D+1 fields, all components finite.
    A duplicate token keeps its last row (with a warning), like common tooling.
    """
    return EmbeddingTable._adopt(*_parse(Path(path)))


def _parse(path: Path) -> tuple[list[str], np.ndarray]:
    """The tokens and raw rows of an embeddings file, checked line by line.

    Each row is converted straight into the one V x D matrix, and in full
    before the next line is read, so the first faulty line wins. The matrix
    is allocated at the first row, sized by what a regular file can hold, so
    the header alone allocates nothing. A non-finite component is reported
    only once every line has passed the other checks.
    """
    import numpy as np

    with open_text(path) as fh:
        parts = fh.readline().split()
        if len(parts) != 2:
            raise FormatError(f"{path}: line 1: header must be 'V D'")
        try:
            vocab, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}: line 1: non-integer header") from exc
        if vocab < 1 or dim < 1:
            raise FormatError(f"{path}: line 1: header values must be >= 1")

        st = os.fstat(fh.fileno())
        matrix = None
        tokens: list[str] = []
        lines: list[int] = []  # each row's line: a blank line shifts one from the other
        seen: set[str] = set()
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            row = len(tokens)
            if row >= vocab:
                raise FormatError(f"{path}: line {lineno}: more rows than the header's {vocab}")
            if len(fields) != dim + 1:
                raise FormatError(
                    f"{path}: line {lineno}: expected {dim + 1} fields, got {len(fields)}"
                )
            if matrix is None:
                # A row takes at least 2*D+1 bytes, so a regular file's size
                # bounds the rows worth allocating, whatever the header claims.
                rows = st.st_size // (2 * dim + 1) if stat.S_ISREG(st.st_mode) else 1
                matrix = np.empty((min(vocab, max(1, rows)), dim), dtype=np.float64)
            elif row == len(matrix):  # a pipe, say, or a file that grew since fstat
                matrix.resize((min(vocab, 2 * row), dim), refcheck=False)
            try:
                matrix[row] = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: non-numeric component") from exc
            token = fields[0]
            if token in seen:
                print(f"warning: {path}: line {lineno}: duplicate token {token!r}, "
                      "last row wins", file=sys.stderr)
            seen.add(token)
            tokens.append(token)
            lines.append(lineno)
        if len(tokens) != vocab:
            raise FormatError(f"{path}: expected {vocab} rows, file has {len(tokens)}")
    step = max(1, _CHUNK // dim)
    for i in range(0, vocab, step):
        bad = np.flatnonzero(~np.isfinite(matrix[i:i + step]).all(axis=1))
        if bad.size:
            raise FormatError(f"{path}: line {lines[i + bad[0]]}: non-finite component")
    return tokens, matrix


def knn(table: EmbeddingTable, query: str, k: int) -> list[tuple[str, float]]:
    """The k most cosine-similar usable tokens to ``query``, best first.

    The query itself is excluded; ties are broken by token lexicographic
    order; fewer than k candidates returns them all. An out-of-vocabulary
    query raises ``ValueError``.

    Only a band is sorted, in the order of a full sort: the band is every
    candidate not worse than the k-th best (``np.partition``), so it holds
    the whole tie at the k-th place. NumPy sorts NaN last, so the band is
    ``~(neg > kth)``: a NaN k-th value makes it every candidate.
    """
    import numpy as np

    if query not in table:
        raise ValueError(f"query {query!r} is not in the vocabulary")
    if not table.usable(query):
        raise ValueError(f"query {query!r} has a zero-norm vector")
    if k < 1:
        raise ValueError("k must be >= 1")
    qi = table._index[query]
    sims = table._units @ table._units[qi]
    mask = table._candidate.copy()
    mask[qi] = False
    idx = np.nonzero(mask)[0]
    neg = -sims[idx]
    if k < idx.size:
        kth = np.partition(neg, k - 1)[k - 1]
        band = ~(neg > kth)
        idx, neg = idx[band], neg[band]
    # Primary key: similarity descending. Secondary: token lexicographic.
    order = np.lexsort((table._token_rank[idx], neg))
    top = idx[order[:k]]
    return [(table._tokens[i], float(sims[i])) for i in top]


def expand_lexicon(seed: Lexicon, table: EmbeddingTable, k: int = 10,
                   neighbors: dict[tuple[str, int], list[Term]] | None = None) -> Lexicon:
    """Union the seed with the k nearest neighbors of each single-token seed.

    Multiword terms pass through untouched; seeds missing from the
    vocabulary (or with zero-norm vectors) are kept but not expanded.
    ``neighbors`` maps (seed, k) to the seed's neighbors as terms and takes
    the ones queried here: a caller that expands several lexicons over one
    table passes the same dict to every call, so a seed they share is
    queried once.
    """
    neighbors = {} if neighbors is None else neighbors
    terms = set(seed.terms)
    for term in sorted(seed.terms):
        if len(term) != 1 or not table.usable(term[0]):
            continue
        token = term[0]
        if (token, k) not in neighbors:
            neighbors[token, k] = [(t,) for t, _ in knn(table, token, k)]
        terms.update(neighbors[token, k])
    return Lexicon(name=seed.name, terms=frozenset(terms))


def associate_categories(
    expanded: Lexicon, cats: CategorySet, m: int = 10
) -> MarkerMapping:
    """Rank categories by shared single-token count against a lexicon.

    Zero-count categories are dropped, so the result holds at most m
    entries; ties are ordered by category name.
    """
    words = expanded.single_tokens()
    counted = []
    for cat_name, cat_lex in cats.categories.items():
        n = len(words & cat_lex.single_tokens())
        if n > 0:
            counted.append((cat_name, n))
    counted.sort(key=lambda cn: (-cn[1], cn[0]))
    return MarkerMapping(construct=expanded.name, ranked=tuple(counted[:m]))
