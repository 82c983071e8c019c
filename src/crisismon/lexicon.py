"""Lexicon and category-set storage.

A lexicon is a named set of terms; a term is a tuple of one or more
normalized tokens, so multiword phrases like "panic attack" are first-class.
Term strings are pushed through the same normalizer as tweet text
(:func:`crisismon.corpus.preprocess`), which keeps matcher and lexicon
semantics from drifting apart.

Category sets bundle many lexicons under one name ("empath", "sentisense")
and are the unit the matcher is compiled from. All objects are immutable
after load.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .corpus import preprocess
from .errors import FormatError, read_json, write_json

Term = tuple[str, ...]


class Lexicon(NamedTuple):
    name: str
    terms: frozenset[Term]

    def single_tokens(self) -> frozenset[str]:
        """The single-token terms, as bare tokens."""
        return frozenset(t[0] for t in self.terms if len(t) == 1)


class CategorySet(NamedTuple):
    """Lexicons by category name; with none given, an empty read-only mapping."""

    name: str
    categories: Mapping[str, Lexicon] = MappingProxyType({})


class MarkerMapping(NamedTuple):
    """Categories ranked by shared-word count for one construct.

    ``ranked`` is sorted by count descending, ties broken by category name,
    and never holds zero-count categories, so its length is at most the
    configured cutoff.
    """

    construct: str
    ranked: tuple[tuple[str, int], ...]


def make_lexicon(name: str, term_strings) -> Lexicon:
    """Build a Lexicon from raw term strings through the shared normalizer.

    Strings that normalize to nothing (pure punctuation) are dropped;
    duplicates after normalization collapse. An empty result raises
    ``ValueError``.
    """
    terms = set()
    for raw in term_strings:
        toks = tuple(preprocess(raw))
        if toks:
            terms.add(toks)
    if not terms:
        raise ValueError(f"lexicon {name!r} has no usable terms")
    return Lexicon(name=name, terms=frozenset(terms))


def _read_named(path: str | Path, key: str) -> tuple[str, object]:
    """A lexicon or category-set file's ``name``, a string, and ``key`` value."""
    obj = read_json(path)
    if not (isinstance(obj, dict) and isinstance(obj.get("name"), str) and key in obj):
        raise FormatError(f"{path}: expected an object with 'name' and {key!r}, 'name' a string")
    return obj["name"], obj[key]


def _file_lexicon(path: str | Path, name: str, terms: object) -> Lexicon:
    """Lexicon or category ``name`` of a file, from ``terms``, an array of strings."""
    if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
        raise FormatError(f"{path}: the terms of {name!r} must be an array of strings")
    return make_lexicon(name, terms)


def load_lexicon(path: str | Path) -> Lexicon:
    """Load ``{"name": ..., "terms": [...]}`` from a JSON file."""
    return _file_lexicon(path, *_read_named(path, "terms"))


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    write_json(path, {"name": lexicon.name, "terms": sorted(" ".join(t) for t in lexicon.terms)})


def load_category_set(path: str | Path) -> CategorySet:
    """Load ``{"name": ..., "categories": {cat: [terms]}}`` from JSON."""
    name, cats = _read_named(path, "categories")
    if not isinstance(cats, dict):
        raise FormatError(f"{path}: 'categories' must be an object")
    return CategorySet(name, {cat: _file_lexicon(path, cat, terms) for cat, terms in cats.items()})


_NOT_IN_NAME = set("/\0" + os.sep + (os.altsep or ""))


def load_manifest(path: str | Path) -> dict[str, Lexicon]:
    """Load a construct -> lexicon-path manifest and all lexicons it names.

    Relative paths are resolved against the manifest's own directory. A
    construct's name becomes its output files' name, so it must be a plain
    one: not empty, ``.`` or ``..``, and holding no path separator or NUL.
    """
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: manifest must be an object")
    out: dict[str, Lexicon] = {}
    for construct, lex_path in obj.items():
        if construct in ("", ".", "..") or set(construct) & _NOT_IN_NAME:
            raise FormatError(f"{path}: construct {construct!r} is not a plain file name")
        if not isinstance(lex_path, str):
            raise FormatError(f"{path}: path for {construct!r} must be a string")
        resolved = Path(lex_path)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        out[construct] = load_lexicon(resolved)
    return out


def save_marker_mapping(mapping: MarkerMapping, path: str | Path) -> None:
    write_json(path, {
        "construct": mapping.construct,
        "ranked": [{"category": c, "count": n} for c, n in mapping.ranked],
    })
