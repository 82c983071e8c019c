"""Independent reference implementations used as test oracles.

Deliberately naive, loop-heavy code with its own arithmetic paths (stdlib
statistics, explicit index walks) so that agreement with the library is
evidence rather than tautology.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import unicodedata
from datetime import date, datetime, timedelta

import numpy as np


def naive_match(categories: dict[str, list[tuple[str, ...]]], tokens) -> set[str]:
    """Per-term scan: category matches if any term occurs as a consecutive run."""
    toks = list(tokens)
    names = set()
    for name, terms in categories.items():
        for term in terms:
            term = tuple(term)
            span = len(term)
            hit = False
            for i in range(len(toks) - span + 1):
                if tuple(toks[i : i + span]) == term:
                    hit = True
                    break
            if hit:
                names.add(name)
                break
    return names


def brute_knn(tokens, matrix, query_index, k):
    """Exhaustive top-k by cosine, ties by token, via a separate formula."""
    m = np.asarray(matrix, dtype=float)
    q = m[query_index]
    qn = math.sqrt(float(np.dot(q, q)))
    scored = []
    for i, tok in enumerate(tokens):
        if i == query_index:
            continue
        nn = math.sqrt(float(np.dot(m[i], m[i])))
        if nn == 0.0 or qn == 0.0:
            continue
        scored.append((tok, float(np.dot(m[i], q)) / (nn * qn)))
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


def _is_missing(x) -> bool:
    return x is None or (isinstance(x, float) and math.isnan(x))


def brute_peaks(values) -> list[tuple[int, float]]:
    """O(n^2) scan for strict local maxima (leftmost of plateaus) with
    by-definition prominence walks. Returns (index, prominence) pairs."""
    v = [None if _is_missing(x) else float(x) for x in values]
    n = len(v)
    out = []
    for i in range(1, n - 1):
        if v[i] is None:
            continue
        if v[i - 1] is None or not v[i - 1] < v[i]:
            continue
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        if j == n - 1:
            continue
        if v[j + 1] is None or not v[j + 1] < v[i]:
            continue
        sides = []
        for step in (-1, 1):
            lowest = None
            kk = i + step
            while 0 <= kk < n:
                x = v[kk]
                if x is not None:
                    if x > v[i]:
                        break
                    if lowest is None or x < lowest:
                        lowest = x
                kk += step
            sides.append(lowest)
        out.append((i, v[i] - max(sides)))
    return out


def brute_filter(prominences, sigma_mult=1.0) -> list[int]:
    """Indices of prominences strictly above mean + sigma_mult * population std."""
    if not prominences:
        return []
    mu = statistics.fmean(prominences)
    sd = statistics.pstdev(prominences)
    return [i for i, p in enumerate(prominences) if p > mu + sigma_mult * sd]


def ref_preprocess(text: str) -> list[str]:
    """The tokenizer with no shortcut: every substitution runs on every text,
    then NFKC, lowercasing and the Unicode token pattern."""
    # Imported here: the benchmark's workload builder imports this module
    # without crisismon on its path.
    from crisismon.corpus import split_hashtag

    text = re.sub(r"\b[a-zA-Z][a-zA-Z0-9+.-]*://\S+|\bwww\.\S+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    text = re.sub(
        r"#(\w+)", lambda m: " " + " ".join(split_hashtag(m.group(1))) + " ", text
    )
    text = unicodedata.normalize("NFKC", text).lower()
    return re.findall(r"[^\W\d_]+|\d+", text)


def ref_smooth(values, window) -> list:
    """Trailing mean of present values, independent arithmetic (fmean)."""
    out = []
    for i in range(len(values)):
        win = [x for x in values[max(0, i - window + 1) : i + 1] if not _is_missing(x)]
        out.append(statistics.fmean(win) if win else None)
    return out


def ref_gradient(values) -> list:
    """Central differences with one-sided ends; None poisons its stencil."""
    v = [None if _is_missing(x) else float(x) for x in values]
    n = len(v)
    g: list = [None] * n
    for i in range(1, n - 1):
        if v[i - 1] is not None and v[i + 1] is not None:
            g[i] = (v[i + 1] - v[i - 1]) / 2.0
    if v[0] is not None and v[1] is not None:
        g[0] = v[1] - v[0]
    if v[-1] is not None and v[-2] is not None:
        g[-1] = v[-1] - v[-2]
    return g


def ref_marker_peaks(values, window, sigma_mult=1.0):
    """The whole per-marker pipeline, independently coded.

    Returns a list of (index, direction, height, prominence).
    """
    sg = ref_smooth(ref_gradient(ref_smooth(values, window)), window)
    out = []
    for signal, direction in ((sg, "rise"), ([None if x is None else -x for x in sg], "fall")):
        cands = brute_peaks(signal)
        kept = brute_filter([p for _, p in cands], sigma_mult)
        for pos in kept:
            i, prom = cands[pos]
            out.append((i, direction, signal[i], prom))
    out.sort(key=lambda r: (r[0], r[1]))
    return out


def naive_aggregate(docs, categories, start: date, end: date):
    """Two-pass dict counting; docs are (date, tokens) pairs.

    Returns (matched[name][day], totals[day], dropped).
    """
    totals: dict[date, int] = {}
    matched: dict[str, dict[date, int]] = {name: {} for name in categories}
    d = start
    while d <= end:
        totals[d] = 0
        for name in categories:
            matched[name][d] = 0
        d += timedelta(days=1)
    dropped = 0
    for day, tokens in docs:
        if day < start or day > end:
            dropped += 1
            continue
        totals[day] += 1
        for name in naive_match(categories, tokens):
            matched[name][day] += 1
    return matched, totals, dropped


def _nests_deeper(text: str, cap: int) -> bool:
    """True when the arrays and objects of a JSON text nest deeper than
    ``cap``; a bracket inside a string does not count."""
    depth = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            if depth > cap:
                return True
        elif ch in "]}":
            depth -= 1
    return False


def _is_id(value) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _naive_record(line, tz_hours: int, strict: bool):
    """``(tweet dict, kind, local day)`` of a corpus line, None for a blank
    line; a malformed line raises ValueError or OverflowError."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", "strict" if strict else "replace")
    if line.strip() == "":
        return None
    if _nests_deeper(line, 500):
        raise ValueError("nested too deep")
    try:
        obj = json.loads(line)
    except RecursionError as exc:
        raise ValueError("nested too deep") from exc
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    if not (_is_id(obj.get("id")) and obj["id"] != "" and _is_id(obj.get("user_id"))
            and isinstance(obj.get("created_at"), str) and isinstance(obj.get("text"), str)
            and "kind" in obj and obj["kind"] in ("original", "reply", "retweet")):
        raise ValueError("a missing or wrong field")
    return obj, obj["kind"], _naive_day(obj["created_at"], tz_hours)


def _naive_day(raw: str, tz_hours: int) -> date:
    """The day of an ISO-8601 timestamp at a UTC offset of ``tz_hours``; a
    trailing ``Z`` or ``z``, and no offset, both mean UTC."""
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    offset = dt.utcoffset() or timedelta(0)  # no offset: UTC
    return (dt.replace(tzinfo=None) + (timedelta(hours=tz_hours) - offset)).date()


def naive_records(lines, tz_hours=-3, strict=False):
    """The README's corpus rules over the lines of one file, with
    ``json.loads`` and ``datetime.fromisoformat``; no library code reused.

    ``lines`` are byte or text lines without their ``\\n``. Returns
    ``(records, skipped)``: ``(tweet dict, kind, local day)`` of each valid
    line, and the 1-based numbers of the malformed lines. Under ``strict``
    the scan stops at the first malformed line, the one number in
    ``skipped``, and invalid UTF-8 makes a line malformed instead of being
    replaced.
    """
    recs, skipped = [], []
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = _naive_record(line, tz_hours, strict)
        except (ValueError, OverflowError):
            skipped.append(lineno)
            if strict:
                break
            continue
        if rec is not None:
            recs.append(rec)
    return recs, skipped


def naive_stats(records, tz_hours=-3):
    """Counting script over well-formed tweet dicts; no library code reused."""
    total = orig = rt = rep = with_hash = 0
    per_user: dict[str, int] = {}
    per_day: dict[date, int] = {}
    for r in records:
        total += 1
        kind = r["kind"]
        if kind == "original":
            orig += 1
        elif kind == "retweet":
            rt += 1
        else:
            rep += 1
        text = r["text"]
        if any(
            text[i] == "#" and (text[i + 1].isalnum() or text[i + 1] == "_")
            for i in range(len(text) - 1)
        ):
            with_hash += 1
        user = str(r["user_id"])  # ids are compared as strings: 5 and "5" are one user
        per_user[user] = per_user.get(user, 0) + 1
        day = _naive_day(r["created_at"], tz_hours)
        per_day[day] = per_day.get(day, 0) + 1
    counts = sorted(per_user.values())
    if counts:
        n = len(counts)
        user_summary = {
            "min": counts[0],
            "avg": sum(counts) / n,
            "max": counts[-1],
            "median": counts[(n - 1) // 2],
        }
    else:
        user_summary = None
    return {
        "total": total,
        "original": orig,
        "retweet": rt,
        "reply": rep,
        "with_hashtag": with_hash,
        "users": len(per_user),
        "per_user": user_summary,
        "per_day": {d.isoformat(): c for d, c in sorted(per_day.items())},
    }


def naive_stage_table(values_by_marker, start: date, stages):
    """Double loop over (marker, stage) with a stdlib median.

    ``values_by_marker``: name -> list of float/None. ``stages``: list of
    (stage_name, start_date, end_date). Returns {(marker, stage): value}.
    """
    out = {}
    for marker, values in values_by_marker.items():
        present = [x for x in values if not _is_missing(x)]
        med = statistics.median(present) if present else None
        for stage_name, s0, s1 in stages:
            if med is None or med == 0:
                out[(marker, stage_name)] = None
                continue
            best = None
            d = s0
            while d <= s1:
                idx = (d - start).days
                if 0 <= idx < len(values) and not _is_missing(values[idx]):
                    cand = 100.0 * (values[idx] - med) / med
                    if best is None or cand > best:
                        best = cand
                d += timedelta(days=1)
            out[(marker, stage_name)] = best
    return out


def naive_units(matrix):
    """Unit rows and their usability, by the formula ``EmbeddingTable`` used
    before it normalized in place: whole-matrix norms, then a scaled norm for
    rows whose plain norm overflowed or underflowed, then one division."""
    m = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=1)
    scale = np.abs(m).max(axis=1)
    off = np.isfinite(scale) & (scale > 0.0) & (np.isinf(norms) | (norms == 0.0))
    norms[off] = scale[off] * np.linalg.norm(m[off] / scale[off, None], axis=1)
    ok = norms > 0.0
    units = np.zeros_like(m)
    units[ok] = m[ok] / norms[ok, None]
    return units, ok


# -- The NumPy code the series, reporting and matching layers replaced --------
# Each runs under ``np.errstate(all="ignore")``: NumPy warns where the Python
# floats that replaced it must not raise, and the tests turn warnings into errors.


def np_percent(matched, totals):
    """Categories × days of 100*matched/total, over one row of day totals; NaN
    where the total is not positive."""
    matched = np.array(matched, dtype=np.int64)
    totals = np.array(totals, dtype=np.int64)
    with np.errstate(all="ignore"):
        return np.where(totals > 0, 100.0 * matched / totals, np.nan)


def np_smooth(values, window):
    """Trailing mean of present values relative to each window's first present
    value, over a (days × window) view of the NaN-padded rows."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        pad = np.full(v.shape[:-1] + (window,), np.nan)
        padded = np.concatenate([pad, v], axis=-1)
        wins = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1)[..., 1:, :]
        present = ~np.isnan(wins)
        first = present.argmax(axis=-1)[..., None]
        base = np.take_along_axis(wins, first, axis=-1)[..., 0]
        dev = np.where(present, wins - base[..., None], 0.0)
        return base + dev.sum(axis=-1) / present.sum(axis=-1)


def np_gradient(values):
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        g = np.empty_like(v)
        g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / 2.0
        g[..., 0] = v[..., 1] - v[..., 0]
        g[..., -1] = v[..., -1] - v[..., -2]
    return g


def np_threshold(prominences, sigma_mult=1.0):
    """mean + sigma_mult * population std of the candidate prominences."""
    proms = np.array(prominences, dtype=np.float64)
    with np.errstate(all="ignore"):
        return float(proms.mean() + sigma_mult * proms.std())


def np_zscore(v):
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(all="ignore"):
        if np.isnan(v).all():
            return v
        mean = np.nanmean(v)
        std = np.nanstd(v)
        if std == 0.0:
            return np.zeros_like(v)
        return (v - mean) / std


def np_joint(rows):
    """The joint signal of markers × days smoothed gradients and its signed
    mean: each row z-scored, then the mean over rows of |z| and of z."""
    with np.errstate(all="ignore"):
        zs = np.vstack([np_zscore(row) for row in np.asarray(rows, dtype=np.float64)])
        return np.abs(zs).mean(axis=0), zs.mean(axis=0)


def np_stage_table(rows, start: date, stages):
    """Per row and stage, the maximum of 100*(v - median)/median over the
    stage's present days; None for a zero or undefined median or no days.
    ``stages``: (name, first day, last day) triples."""
    out = []
    with np.errstate(all="ignore"):
        for v in np.asarray(rows, dtype=np.float64):
            present = v[~np.isnan(v)]
            median = float(np.median(present)) if present.size else None
            for _, s0, s1 in stages:
                lo = max((s0 - start).days, 0)
                hi = min((s1 - start).days, v.shape[-1] - 1)
                seg = v[lo : hi + 1] if median and lo <= hi else v[:0]
                seg = seg[~np.isnan(seg)]
                out.append(float(np.max(100.0 * (seg - median) / median)) if seg.size else None)
    return out
