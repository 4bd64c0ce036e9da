"""Missing-value imputation: one fitted implementation for training and serving.

ARDA uses deliberately simple imputation to keep the end-to-end runtime low
(paper section 4, "Imputation"): numeric columns get their median, categorical
columns get a uniform random sample of the observed values.

:class:`FittedImputer` is the implementation.  :meth:`FittedImputer.fit`
imputes every column from its *own* statistics (median of its observed values
/ samples of its observed codes) while recording them, and
:meth:`FittedImputer.transform` replays them on unseen rows.  Fit and
transform run the identical kernels and consume the RNG stream identically
(one ``rng.integers`` draw per categorical column that has missing entries,
in table column order), so ``transform`` applied to the training table
reproduces the training imputation byte-for-byte.  :func:`impute_table` is
the training entry point: the imputed table ``fit`` returns.

Determinism contract: all randomness comes from a single
``np.random.default_rng(seed)`` consumed in table column order.  Numeric
columns and categorical columns without missing entries consume no draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import CATEGORICAL
from repro.relational.table import Table

_MISSING_PLACEHOLDER = "__missing__"


# -- kernels -------------------------------------------------------------------


def _apply_numeric_fill(column: Column, fill: float) -> Column:
    """Replace NaNs with ``fill``; returns the column unchanged if none."""
    values = column.values
    mask = np.isnan(values)
    if not mask.any():
        return column
    out = values.astype(np.float64)
    out[mask] = fill
    return Column.from_array(column.name, out, column.ctype)


def _apply_categorical_fill(
    column: Column,
    observed_codes: np.ndarray,
    observed_dictionary: np.ndarray,
    rng: np.random.Generator,
) -> Column:
    """Fill missing entries with uniform samples of ``observed_codes``.

    ``observed_codes`` index ``observed_dictionary`` (the fit-time dictionary);
    sampled values are translated into the input column's code space, extending
    its dictionary if the input has never seen a sampled value.  When the
    observed set is empty the whole column becomes the ``"__missing__"``
    placeholder (the column was all-missing at fit time, so there is nothing
    to sample — downstream encoding still gets a constant feature).

    Consumes exactly one ``rng.integers`` draw when the input has missing
    entries and the observed set is non-empty, and none otherwise, in fit and
    transform alike, which is what makes transform of the training table
    byte-identical to fit.
    """
    codes = column.codes
    mask = codes < 0
    if not mask.any():
        return column
    if not len(observed_codes):
        placeholder = np.array([_MISSING_PLACEHOLDER], dtype=object)
        return Column.from_codes(
            column.name,
            np.zeros(len(codes), dtype=np.int32),
            placeholder,
            dict_exact=True,
        )
    picks = rng.integers(0, len(observed_codes), size=int(mask.sum()))
    sampled = observed_codes[picks]
    if observed_dictionary is column.dictionary:
        # training replay: the sampled codes already index this dictionary
        out = codes.copy()
        out[mask] = sampled
        return Column.from_codes(column.name, out, column.dictionary)
    # serving on unseen rows: translate fit-time codes into the input's code
    # space, appending fit-time values the input dictionary has never seen
    dictionary = list(column.dictionary)
    index = {value: code for code, value in enumerate(dictionary)}
    translate = np.empty(len(observed_dictionary), dtype=np.int32)
    for code, value in enumerate(observed_dictionary):
        target = index.get(value)
        if target is None:
            target = len(dictionary)
            index[value] = target
            dictionary.append(value)
        translate[code] = target
    out = codes.copy()
    out[mask] = translate[sampled]
    return Column.from_codes(column.name, out, np.array(dictionary, dtype=object))


# -- fitted imputer ------------------------------------------------------------


@dataclass
class ColumnImputeState:
    """The fitted imputation statistics of one column.

    Numeric columns carry ``fill`` (the fit-time median of observed values, or
    0.0 for an all-missing column).  Categorical columns carry the fit-time
    observed codes *in row order* plus the fit-time dictionary — sampling
    uniform positions of the row-order array is what makes fitted replay
    reproduce the training draws exactly.
    """

    name: str
    kind: str  # "numeric" or "categorical"
    fill: float = 0.0
    observed_codes: np.ndarray | None = None
    dictionary: np.ndarray | None = None


class FittedImputer:
    """Per-column imputation statistics captured from one training table.

    Built by :meth:`fit`; :meth:`transform` replays the statistics on any
    table carrying (a subset of) the fitted columns.  Columns missing from the
    input are skipped silently (serving rows legitimately omit the training
    target), which also keeps the RNG stream aligned: a skipped column never
    consumed draws for that input anyway.
    """

    def __init__(self, columns: list[ColumnImputeState], seed: int = 0):
        self.columns = columns
        self.seed = seed
        self._by_name = {state.name: state for state in columns}

    @classmethod
    def fit(cls, table: Table, seed: int = 0) -> tuple["FittedImputer", Table]:
        """Record every column's statistics and return the imputed table.

        The table is imputed by the kernel :meth:`transform` runs, from the
        statistics just recorded: numeric columns get the median of their
        observed values (0.0 when none is observed), categorical columns
        uniform samples of their observed codes.
        """
        states: list[ColumnImputeState] = []
        for col in table.columns():
            if col.ctype is CATEGORICAL:
                codes = col.codes
                states.append(
                    ColumnImputeState(
                        name=col.name,
                        kind="categorical",
                        observed_codes=codes[codes >= 0],
                        dictionary=col.dictionary,
                    )
                )
            else:
                values = col.values
                observed = values[~np.isnan(values)]
                fill = float(np.median(observed)) if len(observed) else 0.0
                states.append(ColumnImputeState(name=col.name, kind="numeric", fill=fill))
        imputer = cls(states, seed=seed)
        return imputer, imputer._impute(table)

    def transform(self, table: Table) -> Table:
        """Impute ``table`` with the fitted statistics.

        Iterates the *fitted* column order (so the RNG stream matches fit),
        skipping fitted columns absent from the input.  Input columns that
        were never fitted raise ``KeyError`` — silently passing them through
        would let un-imputed NaNs reach the encoder.
        """
        return self._impute(table)

    def _impute(self, table: Table) -> Table:
        """The imputation kernel behind :meth:`fit` and :meth:`transform`.

        ``fit`` calls it directly rather than through ``transform``, so a
        tracer that wraps ``transform`` sees replays only.
        """
        unknown = [name for name in table.column_names if name not in self._by_name]
        if unknown:
            raise KeyError(f"columns not seen at fit time: {unknown}")
        rng = np.random.default_rng(self.seed)
        columns: list[Column] = []
        for state in self.columns:
            if state.name not in table:
                continue
            col = table.column(state.name)
            if state.kind == "categorical":
                if col.ctype is not CATEGORICAL:
                    raise TypeError(
                        f"column {state.name!r} was categorical at fit time, "
                        f"got {col.ctype.value}"
                    )
                columns.append(
                    _apply_categorical_fill(
                        col, state.observed_codes, state.dictionary, rng
                    )
                )
            else:
                if col.ctype is CATEGORICAL:
                    raise TypeError(
                        f"column {state.name!r} was numeric at fit time, got categorical"
                    )
                columns.append(_apply_numeric_fill(col, state.fill))
        return Table(columns, name=table.name)


def impute_table(table: Table, seed: int = 0) -> Table:
    """Training imputation: the imputed table :meth:`FittedImputer.fit` returns."""
    return FittedImputer.fit(table, seed=seed)[1]


def missing_fraction(table: Table) -> dict[str, float]:
    """Per-column fraction of missing values."""
    n = max(table.num_rows, 1)
    return {col.name: col.null_count() / n for col in table.columns()}
