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

import logging
from pathlib import Path

import numpy as np

from .errors import FormatError, open_text
from .lexicon import CategorySet, Lexicon, MarkerMapping

log = logging.getLogger(__name__)


class EmbeddingTable:
    """Token -> dense vector map with cached unit vectors for queries.

    Zero-norm vectors are loaded (the token exists) but are unusable as
    queries and never returned as neighbors.
    """

    def __init__(self, tokens: list[str], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError("matrix shape does not match token list")
        if not tokens:
            raise ValueError("empty vocabulary")
        self.dim = matrix.shape[1]
        self._tokens = list(tokens)
        self._matrix = np.asarray(matrix, dtype=np.float64)
        self._index = {t: i for i, t in enumerate(tokens)}
        # A finite row's plain norm overflows to inf past about 1e154 and
        # underflows to 0 below about 1e-154; such a row is scaled first.
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self._matrix, axis=1)
        scale = np.abs(self._matrix).max(axis=1)
        off = np.isfinite(scale) & (scale > 0.0) & (np.isinf(norms) | (norms == 0.0))
        norms[off] = scale[off] * np.linalg.norm(self._matrix[off] / scale[off, None], axis=1)
        ok = norms > 0.0
        self._units = np.zeros_like(self._matrix)
        self._units[ok] = self._matrix[ok] / norms[ok, None]
        # Rows shadowed by a later duplicate token are not legal candidates.
        live = np.zeros(len(tokens), dtype=bool)
        live[list(self._index.values())] = True
        self._candidate = live & ok
        # Lexicographic rank per row, for deterministic tie-breaking.
        order = sorted(range(len(self._tokens)), key=lambda i: self._tokens[i])
        self._token_rank = np.empty(len(order), dtype=np.int64)
        self._token_rank[order] = np.arange(len(order))

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def usable(self, token: str) -> bool:
        """Whether the token can participate in similarity queries."""
        i = self._index.get(token)
        return i is not None and bool(self._candidate[i])


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse the "V D" text format into an EmbeddingTable.

    The file must hold exactly V rows of D+1 fields, all components finite.
    A duplicate token keeps its last row (with a warning), like common tooling.
    """
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: line 1: header must be 'V D'")
        try:
            vocab, dim = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}: line 1: non-integer header") from exc
        if vocab < 1 or dim < 1:
            raise FormatError(f"{path}: line 1: header values must be >= 1")

        tokens: list[str] = []
        matrix = np.empty((vocab, dim), dtype=np.float64)
        seen: dict[str, int] = {}
        linenos: list[int] = []
        row = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if row >= vocab:
                raise FormatError(
                    f"{path}: line {lineno}: more rows than the header's {vocab}"
                )
            fields = line.split()
            if len(fields) != dim + 1:
                raise FormatError(
                    f"{path}: line {lineno}: expected {dim + 1} fields, got {len(fields)}"
                )
            token = fields[0]
            try:
                matrix[row] = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(
                    f"{path}: line {lineno}: non-numeric component"
                ) from exc
            if token in seen:
                log.warning("%s: line %d: duplicate token %r, last row wins",
                            path, lineno, token)
            seen[token] = row
            tokens.append(token)
            linenos.append(lineno)
            row += 1
        if row != vocab:
            raise FormatError(
                f"{path}: expected {vocab} rows, file has {row}"
            )
    # One check over the whole matrix costs less than one per row.
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: line {linenos[bad[0]]}: non-finite component")
    return EmbeddingTable(tokens, matrix)


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


def expand_lexicon(seed: Lexicon, table: EmbeddingTable, k: int = 10) -> Lexicon:
    """Union the seed with the k nearest neighbors of each single-token seed.

    Multiword terms pass through untouched; seeds missing from the
    vocabulary (or with zero-norm vectors) are kept but not expanded.
    """
    terms = set(seed.terms)
    for term in sorted(seed.terms):
        if len(term) != 1:
            continue
        token = term[0]
        if not table.usable(token):
            log.debug("seed %r not expandable, kept as-is", token)
            continue
        terms.update((t,) for t, _ in knn(table, token, k))
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
