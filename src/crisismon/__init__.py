"""crisismon: lexicon-marker prevalence monitoring over tweet corpora.

The pipeline: ingest line-delimited tweet exports, normalize text, expand
seed lexicons with embedding nearest neighbors, rank marker categories by
shared words, match documents against category sets, aggregate daily
prevalence percentages, detect prominent change peaks on smoothed gradients,
and report heatmaps, event annotations and crisis-stage prevalence tables.
"""

from .corpus import Corpus, CorpusStats, ParseReport, corpus_stats, preprocess, split_hashtag
from .expansion import (EmbeddingTable, associate_categories, expand_lexicon, knn,
                        load_embeddings)
from .lexicon import (CategorySet, Lexicon, MarkerMapping, load_category_set,
                      load_lexicon, load_manifest, make_lexicon, save_lexicon)
from .matching import (DailyAggregate, DailyPrevalence, Matcher,
                       aggregate_daily, build_matcher, write_prevalence_csv)
from .reporting import (EventRecord, StageWindow, annotate_peaks,
                        load_events_csv, load_stages_csv, render_heatmap,
                        stage_prevalence_table)
from .series import (Peak, Series, filter_peaks, find_peaks, gradient,
                     joint_peaks, marker_peaks, smooth, smoothed_gradient)

__version__ = "0.1.0"

__all__ = [
    "CategorySet",
    "Corpus",
    "CorpusStats",
    "DailyAggregate",
    "DailyPrevalence",
    "EmbeddingTable",
    "EventRecord",
    "Lexicon",
    "MarkerMapping",
    "Matcher",
    "ParseReport",
    "Peak",
    "Series",
    "StageWindow",
    "aggregate_daily",
    "annotate_peaks",
    "associate_categories",
    "build_matcher",
    "corpus_stats",
    "expand_lexicon",
    "filter_peaks",
    "find_peaks",
    "gradient",
    "joint_peaks",
    "knn",
    "load_category_set",
    "load_embeddings",
    "load_events_csv",
    "load_lexicon",
    "load_manifest",
    "load_stages_csv",
    "make_lexicon",
    "marker_peaks",
    "preprocess",
    "render_heatmap",
    "save_lexicon",
    "smooth",
    "smoothed_gradient",
    "split_hashtag",
    "stage_prevalence_table",
    "write_prevalence_csv",
]
