"""Slow reference constructions that the package's vectorized paths are
checked against; test scale only."""

from math import factorial

import numpy as np

from permaframe.combinatorics import (
    IntegerPartition,
    enumerate_ordered_set_partitions,
    reading_order_partition,
    word_table,
)
from permaframe.errors import ResourceLimitError
from permaframe.schreier import MAX_MATERIALIZE_N, CharacteristicMatrix


def rank_words(words: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of permutation words (rows), as int64."""
    words = np.asarray(words)
    squeeze = words.ndim == 1
    if squeeze:
        words = words[None, :]
    count, n = words.shape
    ranks = np.zeros(count, dtype=np.int64)
    for j in range(n - 1):
        smaller = (words[:, j + 1 :] < words[:, j : j + 1]).sum(axis=1, dtype=np.int64)
        ranks += smaller * factorial(n - 1 - j)
    return ranks[0] if squeeze else ranks


def invert_index_map(vec: np.ndarray) -> np.ndarray:
    inv = np.empty_like(vec)
    inv[vec] = np.arange(len(vec), dtype=vec.dtype)
    return inv


def relabeled_swap_maps(n: int) -> np.ndarray:
    """Adjacent-swap index maps by relabeling every word and re-ranking it:
    ``maps[i - 1][rank(w)]`` is the rank of w with labels i and i+1 swapped."""
    words = word_table(n)
    maps = np.empty((n - 1, factorial(n)), dtype=np.int64)
    for i in range(1, n):
        relabeled = words.copy()
        relabeled[words == i - 1] = i
        relabeled[words == i] = i - 1
        maps[i - 1] = rank_words(relabeled)
    return maps


def characteristic_by_block_recursion(shape: IntegerPartition) -> CharacteristicMatrix:
    """The reading-order lifting matrix assembled from block sub-matrices over
    the row that holds the largest element."""
    n = shape.n
    if n > MAX_MATERIALIZE_N:
        raise ResourceLimitError(f"block recursion cross-check refused for n={n}")

    def reading_rows(comp: tuple[int, ...]) -> list[int]:
        rows: list[int] = []
        for i, size in enumerate(comp):
            rows.extend([i] * size)
        return rows

    def column_row_word(word: tuple[int, ...], comp: tuple[int, ...]) -> tuple[int, ...]:
        if not word:
            return ()
        value = word[-1]
        j = reading_rows(comp)[value]
        sub_comp = comp[:j] + (comp[j] - 1,) + comp[j + 1 :]
        sub_word = tuple(v - 1 if v > value else v for v in word[:-1])
        return column_row_word(sub_word, sub_comp) + (j,)

    words = word_table(n).tolist()
    lookup = {
        osp.row_word: i
        for i, osp in enumerate(enumerate_ordered_set_partitions(shape))
    }
    col_of = np.array(
        [lookup[column_row_word(tuple(w), shape.parts)] for w in words],
        dtype=np.int64,
    )
    return CharacteristicMatrix(shape, reading_order_partition(shape), col_of)
