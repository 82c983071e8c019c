"""
Lexicon expansion and marker selection
======================================

Take a seed lexicon (hand-coded keywords for a construct such as
"anxiety"), pull each word's nearest neighbors from an embedding table,
and rank a category set by how many words it shares with the expanded
lexicon. The top-ranked categories become the construct's *markers*.

Real runs use a pretrained embedding table in the standard text format
("V D" header, then one "token v1 ... vD" row per word). The demo builds
a small synthetic table with planted neighborhoods instead, so it runs
offline and deterministically.
"""

from pathlib import Path

import numpy as np

from crisismon import (EmbeddingTable, associate_categories,
                       expand_lexicon, knn, load_lexicon, make_lexicon,
                       CategorySet)

DATA = Path(__file__).resolve().parent.parent / "data"

# --- seed lexicon ------------------------------------------------------------
seed = load_lexicon(DATA / "lexicons" / "anxiety.json")
print(f"seed lexicon {seed.name!r}: {len(seed.terms)} terms, e.g.",
      sorted(" ".join(t) for t in seed.terms)[:5])

# --- synthetic embeddings with planted neighborhoods -------------------------
# Words that belong together sit in a shared direction plus noise, so the
# nearest neighbors of "fear" are its planted companions.
rng = np.random.default_rng(7)
groups = {
    "fear": ["dread", "scare", "fright", "alarmed"],
    "worry": ["worries", "worried", "concern", "uneasy"],
    "heart": ["heartbeat", "pulse", "chest"],
    "medication": ["pills", "dose", "prescription"],
}
tokens, rows = [], []
for gi, (head, members) in enumerate(groups.items()):
    axis = np.zeros(16)
    axis[gi] = 1.0
    for word in [head, *members]:
        tokens.append(word)
        rows.append(axis + rng.normal(0, 0.05, 16))
table = EmbeddingTable(tokens, np.array(rows))

print("\nnearest neighbors of 'fear':")
for tok, sim in knn(table, "fear", 4):
    print(f"  {tok:10} {sim:.3f}")

# --- expansion ----------------------------------------------------------------
expanded = expand_lexicon(seed, table, k=3)
added = sorted(" ".join(t) for t in expanded.terms - seed.terms)
print(f"\nexpansion added {len(added)} terms: {added}")
# Multiword seeds ("panic attack") pass through untouched, and seeds missing
# from the vocabulary are kept without neighbors.

# --- marker selection ---------------------------------------------------------
cats = CategorySet(
    name="toy",
    categories={
        "terror": make_lexicon("terror", ["fear", "dread", "fright", "horror"]),
        "anxiousness": make_lexicon("anxiousness", ["worry", "worried", "uneasy", "nervousness"]),
        "body": make_lexicon("body", ["heart", "chest", "pulse", "skin"]),
        "cooking": make_lexicon("cooking", ["pan", "oven", "salt"]),
    },
)
mapping = associate_categories(expanded, cats, m=5)
print(f"\nmarkers for {mapping.construct!r} (category, shared words):")
for cat, count in mapping.ranked:
    print(f"  {cat:12} {count}")
# "cooking" shares nothing and is dropped; ties order alphabetically.
