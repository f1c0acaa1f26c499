"""Perplexity computation and removal of extreme-perplexity samples.

Cutoffs are rank-based (order statistics), not fitted: exactly
``floor(n * tail_low)`` lowest and ``floor(n * tail_high)`` highest
perplexity samples are removed, ties broken by removing the lower index
first. Kept samples retain their original order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SampleMeta
from .errors import InputError


@dataclass(frozen=True)
class FilteredSet:
    """Partition of the input index set into kept and removed tails."""

    kept: np.ndarray
    removed_low: np.ndarray
    removed_high: np.ndarray
    thresholds: tuple[float, float]


def perplexity_from_nlls(nlls) -> float:
    """exp of the mean per-token negative log-likelihood."""
    arr = np.asarray(nlls, dtype=np.float64)
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise InputError("NLL entries must be finite and >= 0")
    with np.errstate(over="ignore"):
        return _perplexity(arr)


def _perplexity(nlls) -> float:
    """:func:`perplexity_from_nlls` for NLLs already known finite and >= 0.

    Call it with numpy's overflow warning off: an overflow is its InputError.
    A ``SampleMeta.nlls`` sequence is read as a view of its packed buffer,
    with no per-value conversion.
    """
    arr = np.asarray(nlls, dtype=np.float64)
    if arr.size == 0:
        raise InputError("empty NLL sequence")
    ppl = float(np.exp(arr.mean()))
    if not np.isfinite(ppl):
        raise InputError("perplexity overflowed to infinity")
    return ppl


def resolve_ppls(metas: list[SampleMeta]) -> np.ndarray:
    """Per-sample perplexity: the stored ppl, else computed from nlls.

    A sample carrying neither is an error; silent imputation would corrupt
    the tail statistics. Every error names the sample and its row.
    """
    out = np.empty(len(metas), dtype=np.float64)
    with np.errstate(over="ignore"):
        for i, meta in enumerate(metas):
            if meta.ppl is not None:
                out[i] = meta.ppl
            elif meta.nlls is not None:
                try:
                    out[i] = _perplexity(meta.nlls)  # SampleMeta validated them
                except InputError as exc:
                    raise InputError(f"sample {meta.id!r} (row {i}): {exc}") from None
            else:
                raise InputError(f"sample {meta.id!r} (row {i}) has neither ppl nor nlls")
    return out


def filter_extremes(ppls, tail_low: float, tail_high: float) -> FilteredSet:
    """Drop both tails of the perplexity distribution by rank.

    The low tail is removed first, then the high tail from the remaining
    samples; within a tie group, lower indices are removed first.
    """
    arr = np.asarray(ppls, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError("ppls must be a 1-D sequence")
    if arr.size == 0:
        raise InputError("no samples: the perplexity sequence is empty")
    if not np.isfinite(arr).all() or (arr <= 0).any():
        raise InputError("all PPL values must be finite and positive")
    if tail_low < 0 or tail_high < 0 or tail_low + tail_high >= 1:
        raise InputError("need tail_low, tail_high >= 0 and tail_low + tail_high < 1")
    n = arr.size
    n_low = int(np.floor(n * tail_low))
    n_high = int(np.floor(n * tail_high))

    idx = np.arange(n)
    asc = np.lexsort((idx, arr))  # ppl ascending, ties by index ascending
    removed_low = asc[:n_low]
    low_mask = np.zeros(n, dtype=bool)
    low_mask[removed_low] = True

    rest = idx[~low_mask]
    desc = rest[np.lexsort((rest, -arr[rest]))]  # ppl descending, ties by index ascending
    removed_high = desc[:n_high]
    high_mask = np.zeros(n, dtype=bool)
    high_mask[removed_high] = True

    kept = idx[~(low_mask | high_mask)]
    thresholds = (float(arr[kept].min()), float(arr[kept].max()))
    return FilteredSet(
        kept=kept,
        removed_low=np.sort(removed_low),
        removed_high=np.sort(removed_high),
        thresholds=thresholds,
    )
