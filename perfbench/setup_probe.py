"""Print crisismon's fixed start-up cost, measured in this fresh interpreter.

    python perfbench/setup_probe.py CATEGORIES.json

The cost is what a run pays before its first tweet: ``import crisismon``,
then loading the category set and compiling its matcher.
"""

import sys
import time


def setup_seconds(categories: str) -> float:
    start = time.perf_counter()
    import crisismon  # noqa: F401  (the import is part of what is timed)
    from crisismon import lexicon, matching

    matching.build_matcher(lexicon.load_category_set(categories))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(setup_seconds(sys.argv[1]))
