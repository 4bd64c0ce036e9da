"""Feature encoding: turn a relational table into a numeric design matrix.

ARDA binarises categorical features into one-hot indicator columns (so the
result is amenable to sketching and to the linear models in the ranking
ensemble) and leaves numeric / datetime / boolean columns as-is.

One implementation serves training and serving:

* :class:`FittedEncoder` — :meth:`FittedEncoder.fit` records each column's
  encoding decision (one-hot category list, per-value frequency table) and
  produces its matrix through :meth:`FittedEncoder.transform`, which replays
  the decisions on unseen rows: unseen categories encode as all-zero
  indicators / zero frequency.  :func:`_column_state` is the only place the
  one-hot-or-frequency decision is made.
* :func:`encode_features` / :func:`to_design_matrix` — the training float
  design matrix: the decisions ``fit`` records, encoded by the kernel
  ``transform`` runs.
* :func:`encode_features_binned` / :func:`to_binned_matrix` — the same
  decisions quantised into a :class:`~repro.ml.binning.BinnedMatrix`
  consumed by histogram-kernel estimators (``selector.select(...,
  binned=...)``); byte-identical feature layout and bins to quantising the
  float matrix, computed straight from dictionary codes.

Encoding never imputes: callers impute first (see
:mod:`repro.relational.imputation`), and a value still missing encodes as
0.0 — an all-zero indicator row, a zero frequency, or 0.0 for a numeric NaN.

Determinism contract: encoding consumes no RNG draws; every function leaves
its input table untouched and returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.binning import (
    DEFAULT_MAX_BINS,
    BinnedMatrix,
    bin_column,
    bin_value_ranges,
    check_max_bins,
)
from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table


@dataclass
class EncodedMatrix:
    """A numeric design matrix plus bookkeeping back to table columns.

    ``feature_names`` names each matrix column; ``source_columns`` maps each
    matrix column back to the table column it was derived from (one-hot
    expansion produces several matrix columns per categorical table column).
    """

    matrix: np.ndarray
    feature_names: list[str]
    source_columns: list[str]

    @property
    def num_features(self) -> int:
        """Number of encoded feature columns."""
        return self.matrix.shape[1]

    def columns_for_source(self, source: str) -> list[int]:
        """Indices of matrix columns derived from one table column."""
        return [i for i, s in enumerate(self.source_columns) if s == source]


# -- per-column decisions ------------------------------------------------------


@dataclass
class ColumnEncoderState:
    """The fitted encoding decision of one table column.

    ``kind`` is ``"numeric"`` (pass-through), ``"onehot"`` (indicator per
    fit-time category, in fit-time order) or ``"frequency"`` (each value
    replaced by its fit-time relative frequency; unseen values read 0.0).
    A frequency state keeps the fit-time dictionary itself as
    ``frequency_values``, with ``frequencies`` aligned to its codes.
    """

    name: str
    kind: str
    feature_names: list[str]
    categories: list[str] | None = None
    frequency_values: np.ndarray | None = None
    frequencies: np.ndarray | None = None


def _column_state(col: Column, max_categories: int) -> ColumnEncoderState:
    """Decide how one column encodes.

    Categorical columns with at most ``max_categories`` distinct values are
    one-hot encoded; higher-cardinality (or all-missing) categorical columns
    are frequency encoded (each value replaced by its relative frequency) to
    avoid blowing up the feature count.  Other columns pass through.
    """
    if col.ctype is not CATEGORICAL:
        return ColumnEncoderState(name=col.name, kind="numeric", feature_names=[col.name])
    categories = col.unique()
    if 0 < len(categories) <= max_categories:
        return ColumnEncoderState(
            name=col.name,
            kind="onehot",
            feature_names=[f"{col.name}={cat}" for cat in categories],
            categories=categories,
        )
    return ColumnEncoderState(
        name=col.name,
        kind="frequency",
        feature_names=[f"{col.name}__freq"],
        frequency_values=col.dictionary,
        frequencies=_frequency_per_code(col)[: len(col.dictionary)],
    )


def _column_states(
    table: Table, exclude: Sequence[str], max_categories: int
) -> list[ColumnEncoderState]:
    """The decision of every column not in ``exclude``, in table order."""
    exclude_set = set(exclude)
    return [
        _column_state(col, max_categories)
        for col in table.columns()
        if col.name not in exclude_set
    ]


# -- kernels -------------------------------------------------------------------


def _numeric_block(col: Column) -> np.ndarray:
    """A float-backed column as an ``(n, 1)`` matrix block (0-row safe)."""
    return np.asarray(col.values, dtype=np.float64).reshape(len(col), 1)


def _assemble_matrix(blocks: list[np.ndarray], n: int) -> np.ndarray:
    """Stack per-column blocks and sanitise non-finite values to zero."""
    if blocks:
        matrix = np.column_stack(blocks)
    else:
        matrix = np.empty((n, 0), dtype=np.float64)
    return np.nan_to_num(matrix, nan=0.0, posinf=0.0, neginf=0.0)


def _one_hot_positions(col: Column, categories: list) -> np.ndarray:
    """Per-row one-hot column index (-1 for missing / unlisted categories).

    Runs on the dictionary codes: per-category work touches only the (small)
    dictionary and the per-row work is one integer gather — the row strings
    are never materialised.
    """
    position = {cat: j for j, cat in enumerate(categories)}
    code_to_column = np.full(len(col.dictionary) + 1, -1, dtype=np.int64)
    for code, cat in enumerate(col.dictionary):
        code_to_column[code] = position.get(cat, -1)
    return code_to_column[col.codes]


def _frequency_per_code(col: Column) -> np.ndarray:
    """Relative frequency per dictionary code, with a trailing 0.0 slot.

    The spare slot means indexing with code ``-1`` reads a frequency of zero,
    so missing rows encode as 0.0.
    """
    codes = col.codes
    counts = np.bincount(codes[codes >= 0], minlength=len(col.dictionary) + 1)
    return counts / max(len(codes), 1)


def _state_frequencies(col: Column, state: ColumnEncoderState) -> np.ndarray:
    """A frequency state's per-code frequencies on ``col``'s dictionary.

    Carries the trailing 0.0 slot :func:`_frequency_block` expects.  A column
    that shares the fit-time dictionary (the fitted table itself, its row
    slices and imputed copies) indexes the fit-time frequencies directly;
    any other dictionary takes the per-value remap.
    """
    if state.frequency_values is col.dictionary:
        return np.append(state.frequencies, 0.0)
    return FittedEncoder._remap_frequencies(col, state)


def _one_hot_block(col: Column, categories: list) -> np.ndarray:
    """The one-hot indicator block for an explicit category list.

    Values outside ``categories`` (including fit-time-unseen dictionary
    entries) produce all-zero rows.
    """
    columns = _one_hot_positions(col, categories)
    block = np.zeros((len(columns), len(categories)), dtype=np.float64)
    rows = np.nonzero(columns >= 0)[0]
    block[rows, columns[rows]] = 1.0
    return block


def _frequency_block(col: Column, frequency_per_code: np.ndarray) -> np.ndarray:
    """The frequency column for a per-code frequency array (one row gather).

    ``frequency_per_code`` must carry a trailing 0.0 slot so code ``-1``
    (missing) reads zero.
    """
    n = len(col.codes)
    return frequency_per_code[col.codes].reshape(n, 1).astype(np.float64)


# -- fitted encoder ------------------------------------------------------------


class FittedEncoder:
    """Per-column encoding decisions captured from one training table.

    Built by :meth:`fit` over the (already imputed) training table;
    :meth:`transform` replays the decisions on any table carrying the fitted
    feature columns, producing a matrix with the training feature layout.
    Unseen categorical values one-hot to all-zero rows and frequency-encode
    to 0.0.
    """

    def __init__(self, columns: list[ColumnEncoderState], max_categories: int = 20):
        self.columns = columns
        self.max_categories = max_categories

    @property
    def feature_names(self) -> list[str]:
        """Matrix column names, in order."""
        return [name for state in self.columns for name in state.feature_names]

    @property
    def source_columns(self) -> list[str]:
        """The table column each matrix column derives from, in order."""
        return [
            state.name for state in self.columns for _ in state.feature_names
        ]

    @classmethod
    def fit(
        cls,
        table: Table,
        exclude: Sequence[str] = (),
        max_categories: int = 20,
    ) -> tuple["FittedEncoder", EncodedMatrix]:
        """Record every column's encoding decision and return the encoded matrix.

        ``table`` must already be imputed (see :class:`FittedImputer` in
        :mod:`repro.relational.imputation`); the returned matrix is
        :func:`encode_features`'s, produced by running :meth:`transform` on
        the recorded state.
        """
        encoder = cls(_column_states(table, exclude, max_categories), max_categories)
        matrix = encoder.transform(table)
        return encoder, EncodedMatrix(matrix, encoder.feature_names, encoder.source_columns)

    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` with the fitted decisions (training feature layout).

        Every fitted column must be present in the input (``KeyError``
        otherwise); extra input columns — e.g. the training target riding
        along — are ignored.  The input is expected to be imputed already;
        stray NaNs are sanitised to 0.0.
        """
        return self._encode(table)

    def _encode(self, table: Table) -> np.ndarray:
        """The encode kernel behind :meth:`transform` and :func:`encode_features`."""
        missing = [state.name for state in self.columns if state.name not in table]
        if missing:
            raise KeyError(f"input is missing fitted feature columns: {missing}")
        blocks: list[np.ndarray] = []
        for state in self.columns:
            col = table.column(state.name)
            if state.kind == "numeric":
                if col.ctype is CATEGORICAL:
                    raise TypeError(
                        f"column {state.name!r} was numeric at fit time, got categorical"
                    )
                blocks.append(_numeric_block(col))
                continue
            if col.ctype is not CATEGORICAL:
                raise TypeError(
                    f"column {state.name!r} was categorical at fit time, "
                    f"got {col.ctype.value}"
                )
            if state.kind == "onehot":
                blocks.append(_one_hot_block(col, state.categories))
            else:
                blocks.append(_frequency_block(col, _state_frequencies(col, state)))
        return _assemble_matrix(blocks, table.num_rows)

    @staticmethod
    def _remap_frequencies(col: Column, state: ColumnEncoderState) -> np.ndarray:
        """Fit-time per-value frequencies remapped onto the input's dictionary.

        The result has the trailing 0.0 slot :func:`_frequency_block` expects;
        values the fit never saw read 0.0.
        """
        mapping = dict(zip(state.frequency_values, state.frequencies))
        out = np.zeros(len(col.dictionary) + 1, dtype=np.float64)
        for code, value in enumerate(col.dictionary):
            out[code] = mapping.get(value, 0.0)
        return out


# -- training entry points -----------------------------------------------------


def encode_features(
    table: Table,
    exclude: Sequence[str] = (),
    max_categories: int = 20,
) -> EncodedMatrix:
    """Encode every column except ``exclude`` into a float matrix.

    Returns the matrix :meth:`FittedEncoder.fit` would, without keeping the
    encoder.  The encode kernel is called directly rather than through
    :meth:`FittedEncoder.transform`, so a tracer that wraps both sees one
    encode per call.
    """
    encoder = FittedEncoder(_column_states(table, exclude, max_categories), max_categories)
    matrix = encoder._encode(table)
    return EncodedMatrix(matrix, encoder.feature_names, encoder.source_columns)


def to_design_matrix(
    table: Table,
    target: str,
    max_categories: int = 20,
) -> tuple[np.ndarray, np.ndarray, EncodedMatrix]:
    """Split a table into ``(X, y, encoding)`` for model training.

    The target column is returned as a float vector for regression targets and
    as integer class codes for categorical targets.
    """
    y = encode_target(table.column(target))
    features = encode_features(table, exclude=[target], max_categories=max_categories)
    return features.matrix, y, features


def encode_features_binned(
    table: Table,
    exclude: Sequence[str] = (),
    max_categories: int = 20,
    max_bins: int = DEFAULT_MAX_BINS,
) -> BinnedMatrix:
    """Encode a table straight into a :class:`~repro.ml.binning.BinnedMatrix`.

    Produces exactly the bins :meth:`BinnedMatrix.from_matrix` would produce
    for :func:`encode_features`'s float matrix — same feature layout, same bin
    codes, same bin boundaries — but categorical columns map their dictionary
    codes directly to bin codes: the decoded row strings are never
    materialised and (for the one-hot/frequency fast paths) neither is the
    per-row float block.
    """
    max_bins = check_max_bins(max_bins)
    encoder = FittedEncoder(_column_states(table, exclude, max_categories), max_categories)
    n = table.num_rows
    blocks: list[np.ndarray] = []  # per-block uint8 code columns, shape (n, k)
    bin_min: list[np.ndarray] = []
    bin_max: list[np.ndarray] = []
    for state in encoder.columns:
        col = table.column(state.name)
        if state.kind == "numeric":
            values = np.asarray(col.values, dtype=np.float64)
            codes, col_min, col_max = bin_column(values, max_bins)
            block, mins, maxs = codes.reshape(n, 1), [col_min], [col_max]
        else:
            block, mins, maxs = _bin_categorical(col, state, max_bins)
        blocks.append(block)
        bin_min.extend(mins)
        bin_max.extend(maxs)

    codes = np.empty((n, len(bin_min)), dtype=np.uint8, order="F")
    offset = 0
    for block in blocks:
        codes[:, offset : offset + block.shape[1]] = block
        offset += block.shape[1]
    return BinnedMatrix(
        codes, bin_min, bin_max, max_bins, encoder.feature_names, encoder.source_columns
    )


def _bin_categorical(col: Column, state: ColumnEncoderState, max_bins: int):
    """Bin a categorical column's one-hot / frequency features from its codes."""
    codes = col.codes
    n = len(codes)
    if state.kind == "onehot":
        columns = _one_hot_positions(col, state.categories)
        block = np.empty((n, len(state.categories)), dtype=np.uint8)
        mins: list[np.ndarray] = []
        maxs: list[np.ndarray] = []
        for j in range(len(state.categories)):
            indicator = columns == j
            ones = int(indicator.sum())
            if 0 < ones < n:
                # both 0.0 and 1.0 occur: two singleton bins cut at 0.5
                block[:, j] = indicator
                edges = np.array([0.0, 1.0])
            else:
                # constant column: a single bin holding its only value
                block[:, j] = 0
                edges = np.array([1.0 if ones else 0.0])
            mins.append(edges)
            maxs.append(edges)
        return block, mins, maxs
    frequency = _state_frequencies(col, state)
    present = np.unique(codes)  # sorted; may include -1, which reads the 0.0 slot
    distinct = np.unique(frequency[present])
    if len(distinct) <= max_bins:
        # map each dictionary code to its frequency's bin, then gather per row
        cuts = (distinct[:-1] + distinct[1:]) / 2.0
        bin_of_code = np.searchsorted(cuts, frequency, side="left").astype(np.uint8)
        block = bin_of_code[codes].reshape(n, 1)
        col_min, col_max = bin_value_ranges(distinct, cuts)
    else:
        # >max_bins distinct frequencies: quantile-bin the (numeric) row values
        row_codes, col_min, col_max = bin_column(frequency[codes], max_bins)
        block = row_codes.reshape(n, 1)
    return block, [col_min], [col_max]


def to_binned_matrix(
    table: Table,
    target: str,
    max_categories: int = 20,
    max_bins: int = DEFAULT_MAX_BINS,
) -> tuple[BinnedMatrix, np.ndarray]:
    """Split a table into ``(binned_X, y)`` for histogram-kernel training.

    The binned sibling of :func:`to_design_matrix`: identical feature layout
    (``feature_names`` / ``source_columns`` ride on the returned matrix) and
    bit-identical bins to quantising the float design matrix, without decoding
    categorical strings.
    """
    y = encode_target(table.column(target))
    binned = encode_features_binned(
        table, exclude=[target], max_categories=max_categories, max_bins=max_bins
    )
    return binned, y


def encode_target(column: Column) -> np.ndarray:
    """Encode a target column: floats for numeric, class codes for categorical.

    Categorical targets map through the dictionary (sorted distinct values get
    class codes 0..K-1, missing values -1) with one integer gather per row.
    """
    if column.ctype is CATEGORICAL:
        categories = sorted(column.unique())
        index = {cat: i for i, cat in enumerate(categories)}
        code_to_class = np.full(len(column.dictionary) + 1, -1.0, dtype=np.float64)
        for code, cat in enumerate(column.dictionary):
            code_to_class[code] = index.get(cat, -1)
        return code_to_class[column.codes]
    return column.values.astype(np.float64)
