"""crisismon: lexicon-marker prevalence monitoring over tweet corpora.

The pipeline: ingest line-delimited tweet exports, normalize text, expand
seed lexicons with embedding nearest neighbors, rank marker categories by
shared words, match documents against category sets, aggregate daily
prevalence percentages, detect prominent change peaks on smoothed gradients,
and report heatmaps, event annotations and crisis-stage prevalence tables.

Each public name is imported from its module on first use, so ``import
crisismon`` loads no layer module and no NumPy. Only ``expansion`` works on
NumPy arrays, and imports NumPy inside the functions that do; counts,
prevalence, series, peaks and reports are Python ints and floats. So
``stats``, ``analyze`` and ``render`` never load NumPy, and ``expand`` loads
it when it reads the embeddings.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_MODULES = {
    "corpus": "Corpus CorpusStats ParseReport corpus_stats preprocess split_hashtag",
    "expansion": "EmbeddingTable associate_categories expand_lexicon knn load_embeddings",
    "lexicon": "CategorySet Lexicon MarkerMapping load_category_set load_lexicon "
               "load_manifest make_lexicon save_lexicon",
    "matching": "DailyAggregate Matcher aggregate_daily build_matcher write_prevalence_csv",
    "reporting": "EventRecord StageWindow annotate_peaks load_events_csv load_stages_csv "
                 "render_heatmap stage_prevalence_table",
    "series": "Peak Series filter_peaks find_peaks gradient joint_peaks marker_peaks smooth "
              "smoothed_gradient",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
