"""Per-column training loops: the fitted preprocessing's reference.

This is how training imputed and encoded before
:class:`~repro.relational.imputation.FittedImputer` and
:class:`~repro.relational.encoding.FittedEncoder` became the one
implementation.  :func:`impute_table` imputes each column from its own
statistics (:func:`impute_numeric_median`, :func:`impute_categorical_random`)
and :func:`encode_features` decides and encodes each column in one pass
(:func:`_encode_categorical`).  The loops share no code with the modules they
check; tests preprocess tables both ways and require identical bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational.column import Column
from repro.relational.encoding import EncodedMatrix
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table

MISSING_PLACEHOLDER = "__missing__"


def impute_numeric_median(column: Column) -> Column:
    """Replace NaNs with the column median (0.0 if the column is all-missing)."""
    values = column.values
    mask = np.isnan(values)
    if not mask.any():
        return column
    observed = values[~mask]
    out = values.astype(np.float64)
    out[mask] = float(np.median(observed)) if len(observed) else 0.0
    return Column.from_array(column.name, out, column.ctype)


def impute_categorical_random(column: Column, rng: np.random.Generator) -> Column:
    """Replace missing codes with uniform samples of the observed codes in row order.

    An all-missing column becomes the constant ``"__missing__"``.
    """
    codes = column.codes
    mask = codes < 0
    if not mask.any():
        return column
    observed = codes[~mask]
    if not len(observed):
        return Column.from_codes(
            column.name,
            np.zeros(len(codes), dtype=np.int32),
            np.array([MISSING_PLACEHOLDER], dtype=object),
            dict_exact=True,
        )
    out = codes.copy()
    out[mask] = observed[rng.integers(0, len(observed), size=int(mask.sum()))]
    return Column.from_codes(column.name, out, column.dictionary)


def impute_table(table: Table, seed: int = 0) -> Table:
    """Impute every column from its own statistics, one RNG stream in column order."""
    rng = np.random.default_rng(seed)
    columns = []
    for col in table.columns():
        if col.ctype is CATEGORICAL:
            columns.append(impute_categorical_random(col, rng))
        else:
            columns.append(impute_numeric_median(col))
    return Table(columns, name=table.name)


def _encode_categorical(col: Column, max_categories: int) -> tuple[np.ndarray, list[str]]:
    """One-hot encode up to ``max_categories`` distinct values, else frequency encode."""
    codes = col.codes
    categories = col.unique()
    if 0 < len(categories) <= max_categories:
        position = {cat: j for j, cat in enumerate(categories)}
        code_to_column = np.array(
            [position.get(value, -1) for value in col.dictionary] + [-1], dtype=np.int64
        )
        columns = code_to_column[codes]
        block = np.zeros((len(codes), len(categories)), dtype=np.float64)
        rows = np.nonzero(columns >= 0)[0]
        block[rows, columns[rows]] = 1.0
        return block, [f"{col.name}={cat}" for cat in categories]
    counts = np.bincount(codes[codes >= 0], minlength=len(col.dictionary) + 1)
    frequency = counts / max(len(codes), 1)  # the last slot (code -1) reads 0.0
    return frequency[codes].reshape(len(codes), 1), [f"{col.name}__freq"]


def encode_features(
    table: Table, exclude: Sequence[str] = (), max_categories: int = 20
) -> EncodedMatrix:
    """Encode every column except ``exclude``; non-finite values become 0.0."""
    blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    source_columns: list[str] = []
    for col in table.columns():
        if col.name in exclude:
            continue
        if col.ctype is CATEGORICAL:
            block, names = _encode_categorical(col, max_categories)
        else:
            block = np.asarray(col.values, dtype=np.float64).reshape(len(col), 1)
            names = [col.name]
        blocks.append(block)
        feature_names.extend(names)
        source_columns.extend([col.name] * block.shape[1])
    matrix = np.column_stack(blocks) if blocks else np.empty((table.num_rows, 0))
    matrix = np.nan_to_num(matrix, nan=0.0, posinf=0.0, neginf=0.0)
    return EncodedMatrix(matrix, feature_names, source_columns)
