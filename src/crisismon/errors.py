"""Exception taxonomy shared across the package.

Two broad failure families matter to callers (and to the CLI exit codes):

* ``FormatError`` and ``OSError`` -- an input file could not be read or does
  not follow its documented format (CLI exit code 2).
* ``ValueError`` (including the subclasses below) -- the inputs parsed fine
  but violate a contract, e.g. an empty lexicon or a reversed date range
  (CLI exit code 1).
"""

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class FormatError(Exception):
    """An input file violates its documented on-disk format."""


class CorpusFormatError(FormatError):
    """A corpus line is not a well-formed tweet record (strict mode only)."""


class LexiconFormatError(FormatError):
    """A lexicon or category-set file is not valid JSON of the expected shape."""


class EmbeddingFormatError(FormatError):
    """An embedding table file has a bad header or a malformed row."""


class EmptyLexiconError(ValueError):
    """A lexicon contains no usable terms after normalization."""


class OutOfVocabularyError(KeyError):
    """A similarity query token is not in the embedding vocabulary."""


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text input; a decode error while reading names the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # The codec's position counts from a read buffer, not the file: left out.
        raise FormatError(f"{path}: not valid utf-8: {exc.reason}") from exc
