"""CART decision trees for classification and regression.

Two split-search kernels share one construction loop:

* ``tree_method="exact"`` — the classic greedy search: at every node each
  candidate feature is sorted and every boundary between distinct values is
  evaluated with a vectorised impurity computation (Gini for classification,
  variance for regression).  This is the reference implementation the
  histogram kernel is property-tested against.
* ``tree_method="hist"`` — the feature is quantised once (per tree, or once
  per forest / RIFS run when a shared :class:`~repro.ml.binning.BinnedMatrix`
  is passed in) and the node accumulates per-bin count/sum histograms, then
  scans at most ``max_bins`` boundaries instead of sorting ``n`` rows.  On
  features whose distinct-value count fits into the bin budget the two kernels
  are bit-identical (see :mod:`repro.ml.binning` for why).

Construction grows a *group* of trees in lockstep (:func:`grow_trees`; a
single tree is a group of one, a forest hands each executor task a contiguous
group).  Every tree keeps its own RNG and its own pre-order stack of pending
nodes over *row-index arrays* into the training data, so a bootstrap resample
is an index draw, not a matrix copy.  Each step pops the next node of every
unfinished tree and works on all of them with shared numpy calls, not per
node:

* candidate features come from batches each tree draws ahead, with one
  ``Generator.integers`` call per tree that makes exactly the bounded draws
  successive ``Generator.choice`` calls would (:func:`_choice_batches`);
* the histogram kernel scores every candidate split with one ``bincount``
  per statistic;
* one ``bincount`` counts the classes of every split node's two children, so
  a classification child is pushed with its value and purity and only a root
  computes ``_node_value`` (regression nodes keep their per-node
  ``np.add.reduce`` statistics).

Feature importances are accumulated as impurity decrease weighted by the
number of samples reaching the node, matching the quantity the paper's
Random-Forest ranker consumes.  Fitted trees always predict on raw float
matrices: histogram splits are translated back to float thresholds at fit
time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_fit_inputs,
)
from repro.ml.binning import DEFAULT_MAX_BINS, BinnedMatrix, resolve_tree_method

# array cells (see _Growth.search_cells) one search call of a lockstep step
# may use, unless one tree's root search needs more: below it a small forest
# scores every tree's next node together, above it a step needs no more
# memory than growing one tree
_STEP_CELLS_FLOOR = 1 << 17

# candidate sets a tree draws ahead with one Generator.integers call
_DRAW_BATCH = 32
# largest candidate count drawn in batches: past it, one Generator.choice per
# node (a C loop) is faster than the batch's per-position numpy calls
_BATCHED_CANDIDATES_MAX = 24


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int
    threshold: float
    left: int
    right: int
    value: np.ndarray  # class-probability vector (clf) or [mean] (reg)


def _resolve_max_features(option, n_features: int) -> int:
    """Turn a max_features option into an integer count."""
    if option is None or option == "all":
        return n_features
    if option == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if option == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(option, float) and 0 < option <= 1:
        return max(1, int(option * n_features))
    if isinstance(option, (int, np.integer)) and option > 0:
        return min(int(option), n_features)
    raise ValueError(f"invalid max_features {option!r}")


def _choice_batches(rngs: list, n: int, k: int) -> np.ndarray:
    """Each generator's next :data:`_DRAW_BATCH` ``choice(n, size=k, replace=False)`` results.

    Returns a ``(len(rngs), _DRAW_BATCH, k)`` array.  For ``0 < k < n``,
    unless ``n > 10,000`` and ``k > n // 50`` (where ``choice`` tail-shuffles
    instead), ``choice`` runs Floyd's algorithm: step ``t`` draws uniform on
    ``[0, n - k + t]`` and keeps its draw unless an earlier step took it, else
    takes ``n - k + t``.  Then its Fisher-Yates shuffle swaps position ``i``
    with one drawn uniform on ``[0, i]``, for ``i = k - 1, ..., 1``.  Each
    draw is the bounded-integer routine ``Generator.integers`` applies per
    element of an array bound, so one ``integers`` call per generator makes a
    batch's draws in ``choice``'s order, and the Floyd and swap bookkeeping
    runs one position at a time across every set of every generator.
    """
    batch = _DRAW_BATCH
    m = n - k
    highs = np.tile(np.concatenate((np.arange(m, n), np.arange(k - 1, 0, -1))) + 1, batch)
    draws = np.concatenate([rng.integers(0, highs) for rng in rngs]).reshape(-1, 2 * k - 1)
    picks = np.empty((len(draws), k), dtype=np.int64)
    for t in range(k):
        value = draws[:, t]
        taken = (picks[:, :t] == value[:, None]).any(axis=1)
        picks[:, t] = np.where(taken, m + t, value)
    sets = np.arange(len(draws))
    for i in range(k - 1, 0, -1):
        partner = draws[:, 2 * k - 1 - i]
        held = picks[:, i].copy()
        picks[:, i] = picks[sets, partner]
        picks[sets, partner] = held
    return picks.reshape(len(rngs), batch, k)


class _Pending:
    """A popped node that needs a split search, and the split it found."""

    __slots__ = ("growth", "index", "rows", "depth", "candidates",
                 "gain", "feature", "threshold", "mask")

    def __init__(self, growth, index, rows, depth):
        self.growth = growth
        self.index = index
        self.rows = rows
        self.depth = depth
        self.candidates = None  # set by _draw_candidates
        # the winning split: feature -1 until a search finds one; ``mask``
        # marks the rows it sends left
        self.gain, self.feature, self.threshold, self.mask = 0.0, -1, 0.0, None


class _Growth:
    """One tree's construction state inside a lockstep group.

    The stack holds ``(rows, depth, parent, is_left, statistics)`` entries;
    the left child is pushed last, so popping walks the tree in the pre-order
    of a recursive builder.  Node numbering, candidate draws and importance
    sums therefore happen in the same order whatever the other trees of the
    group do.  ``statistics`` is a classification child's ``(value, pure)``,
    counted by its parent's step (:func:`_split_searched`), or ``None`` for a
    root or a regression node, whose statistics are computed when popped.
    """

    def __init__(self, tree, y: np.ndarray, rows: np.ndarray, n_features: int):
        self.tree = tree
        self.y = y
        self.nodes: list[_Node] = []
        # summed as Python floats: the same float64 additions, without a numpy
        # element update per split
        self.importances = [0.0] * n_features
        self.n_features = n_features
        self.n_total = len(rows)
        self.rng = np.random.default_rng(tree.random_state)
        k = self.n_candidates = _resolve_max_features(tree.max_features, n_features)
        # the candidate sets drawn ahead: ``_draw_candidates`` refills an
        # exhausted iterator with a batch of ``_choice_batches``
        if k >= n_features:
            everything = np.arange(n_features)
            everything.flags.writeable = False
            self.drawn = itertools.repeat(everything)
        elif k > _BATCHED_CANDIDATES_MAX:
            self.drawn = (
                self.rng.choice(n_features, size=k, replace=False) for _ in itertools.count()
            )
        else:
            self.drawn = iter(())
        # histogram gains of trees with different class counts are never
        # scored on one zero-padded class axis: numpy's pairwise summation
        # groups the terms of a longer axis differently
        self.n_classes = len(getattr(tree, "classes_", ()))
        self.stack = [(rows, 0, -1, False, None)]

    def next_split(self) -> _Pending | None:
        """Pop nodes until one needs a split search (``None`` once the tree is done).

        Nodes that stop early become leaves on the way; they use no
        candidate set.
        """
        tree = self.tree
        while self.stack:
            rows, depth, parent, is_left, statistics = self.stack.pop()
            index = len(self.nodes)
            if is_left:
                self.nodes[parent].left = index
            elif parent >= 0:
                self.nodes[parent].right = index
            if statistics is None:
                y = self.y[rows]
                value = tree._node_value(y)
            else:
                value, pure = statistics
            self.nodes.append(_Node(-1, 0.0, -1, -1, value))
            if (
                len(rows) < tree.min_samples_split
                or (tree.max_depth is not None and depth >= tree.max_depth)
                or self.n_features == 0  # zero-feature matrices grow one constant leaf
                or (pure if statistics else tree._node_impurity(y, value) <= 1e-12)
            ):
                continue
            return _Pending(self, index, rows, depth)
        return None

    def search_cells(self, n_rows: int, n_bins: int) -> int:
        """Array cells a histogram search of one node of ``n_rows`` rows uses.

        Per candidate: one per gathered row code; per bin one for the counts
        and one per class (or one for the target sums); and, for each of at
        most ``min(n_rows, n_bins)`` cuts scored, four temporaries per
        statistic.
        """
        statistics = 1 + max(self.n_classes, 1)
        cuts = min(n_rows, n_bins)
        return self.n_candidates * (n_rows + statistics * (n_bins + 4 * cuts))

    def split(self, pending: _Pending, n_left: int, children=(None, None)) -> None:
        """Turn ``pending`` into an internal node unless a child would be too small.

        ``children`` holds the left and right child's stack statistics.
        """
        tree, mask = self.tree, pending.mask
        n = len(pending.rows)
        if n_left < tree.min_samples_leaf or (n - n_left) < tree.min_samples_leaf:
            return
        self.importances[pending.feature] += pending.gain * (n / self.n_total)
        node = self.nodes[pending.index]
        node.feature = pending.feature
        node.threshold = pending.threshold
        depth = pending.depth + 1
        left, right = children
        self.stack.append((pending.rows[~mask], depth, pending.index, False, right))
        self.stack.append((pending.rows[mask], depth, pending.index, True, left))

    def finish(self) -> None:
        """Hand the grown nodes and normalised importances to the tree."""
        tree = self.tree
        tree._nodes = self.nodes
        tree.n_features_ = self.n_features
        importances = np.array(self.importances, dtype=np.float64)
        total = importances.sum()
        if total > 0:
            tree.feature_importances_ = importances / total
        else:
            tree.feature_importances_ = np.zeros(self.n_features, dtype=np.float64)


def _choose(pending: _Pending, gains) -> int:
    """Index of the winning candidate: the first to beat the best so far by 1e-15."""
    choice = -1
    for index, gain in enumerate(gains):
        if gain > pending.gain + 1e-15:
            pending.gain, choice = gain, index
    return choice


def _hist_search(pending: list[_Pending], binned: BinnedMatrix) -> None:
    """Score every candidate split of ``pending`` with one ``bincount`` per statistic.

    The nodes share one class count and one candidate count; a *slot* is one
    (node, candidate) pair.  Each gathered code is keyed by (slot, bin), so
    every bucket receives its rows in the node's own row order and
    accumulates exactly as a single-node search would.  Gains are computed
    only at cuts after a non-empty bin with rows on both sides: a cut after an
    empty bin repeats the previous cut's statistics, and ``argmax`` keeps the
    first of equal gains — the non-empty bin, exactly where the exact
    kernel's sorted scan would have cut.
    """
    n_nodes, k = len(pending), len(pending[0].candidates)
    candidates = np.array([p.candidates for p in pending])
    n_bins = int(binned.n_bins[candidates].max())
    if n_bins < 2:
        return
    sizes = [len(p.rows) for p in pending]
    rows = np.concatenate([p.rows for p in pending])
    codes = binned.codes[rows[:, None], np.repeat(candidates, sizes, axis=0)]
    y = np.concatenate([p.growth.y[p.rows] for p in pending])
    # (node, candidate) slot of every gathered code, scaled to its bin range,
    # plus the code: built in place, as this is the step's largest array
    flat = np.repeat(np.arange(0, n_nodes * k, k), sizes)[:, None] + np.arange(k)
    flat *= n_bins
    flat += codes
    flat = flat.ravel()
    n_slots = n_nodes * k
    counts = np.bincount(flat, minlength=n_slots * n_bins)
    cum_n = np.cumsum(counts.reshape(n_slots, n_bins), axis=1).ravel()
    m = np.repeat(sizes, k)
    filled = np.flatnonzero(counts)
    n_left = cum_n[filled]
    is_cut = n_left < m[filled // n_bins]
    cuts = filled[is_cut]
    gains = np.full(n_slots * n_bins, -np.inf)
    gains[cuts] = pending[0].growth.tree._hist_gains(
        flat, y, k, (n_slots, n_bins), cuts, n_left[is_cut], m
    )
    gains = gains.reshape(n_slots, n_bins)
    best = np.argmax(gains, axis=1)
    best_gains = gains[np.arange(n_slots), best].reshape(n_nodes, k).tolist()
    chosen = [(i, _choose(p, best_gains[i])) for i, p in enumerate(pending)]
    chosen = [(i, choice) for i, choice in chosen if choice >= 0]
    if not chosen:
        return
    nodes, choices = (np.array(column) for column in zip(*chosen))
    chosen_slots = nodes * k + choices
    lo = best[chosen_slots]
    # first non-empty bin to the right of the cut fixes the threshold
    after = filled[np.searchsorted(filled, chosen_slots * n_bins + lo, side="right")]
    hi = after - chosen_slots * n_bins
    # every searched row's side of its own node's winning cut, in one gather
    column = np.zeros(n_nodes, dtype=np.int64)
    cut_bin = np.zeros(n_nodes, dtype=np.int64)
    column[nodes], cut_bin[nodes] = choices, lo
    column, cut_bin = np.repeat(column, sizes), np.repeat(cut_bin, sizes)
    goes_left = codes[np.arange(len(rows)), column] <= cut_bin
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for i, choice, bin_lo, bin_hi in zip(*(a.tolist() for a in (nodes, choices, lo, hi))):
        p = pending[i]
        p.feature = int(candidates[i, choice])
        p.threshold = binned.split_threshold(p.feature, bin_lo, bin_hi)
        p.mask = goes_left[starts[i]:starts[i + 1]]


def _slices(items: list, costs: list[int], budget: int):
    """Cut ``items`` into consecutive slices costing at most ``budget`` (one item at least)."""
    start = 0
    while start < len(items):
        stop, used = start + 1, costs[start]
        while stop < len(items) and used + costs[stop] <= budget:
            used += costs[stop]
            stop += 1
        yield items[start:stop]
        start = stop


def _hist_step(pending: list[_Pending], binned: BinnedMatrix, n_bins: int, budget: int) -> None:
    """Search ``pending`` in slices of at most ``budget`` array cells per call."""
    by_classes: dict[int, list[_Pending]] = {}
    for p in pending:
        by_classes.setdefault(p.growth.n_classes, []).append(p)
    for group in by_classes.values():
        cells = [p.growth.search_cells(len(p.rows), n_bins) for p in group]
        for part in _slices(group, cells, budget):
            _hist_search(part, binned)


def _exact_search(p: _Pending, X: np.ndarray) -> None:
    """The exact kernel's per-node search: sort every candidate feature."""
    tree, y = p.growth.tree, p.growth.y[p.rows]
    splits = [tree._best_split_for_feature(X[p.rows, feature], y) for feature in p.candidates]
    choice = _choose(p, [gain for gain, _ in splits])
    if choice >= 0:
        p.feature, p.threshold = int(p.candidates[choice]), splits[choice][1]
        p.mask = X[p.rows, p.feature] <= p.threshold


def _draw_candidates(pending: list[_Pending]) -> None:
    """Give every node of ``pending`` its tree's next candidate set.

    Trees whose drawn sets ran out get their next batch here, from one
    :func:`_choice_batches` call for all of them.  A batch may hold more sets
    than its tree will search; no one else reads the tree's generator.
    """
    refill = []
    for p in pending:
        p.candidates = next(p.growth.drawn, None)
        if p.candidates is None:
            refill.append(p)
    if refill:
        growth = refill[0].growth
        batches = _choice_batches(
            [p.growth.rng for p in refill], growth.n_features, growth.n_candidates
        )
        for p, batch in zip(refill, batches):
            p.growth.drawn = iter(batch)
            p.candidates = next(p.growth.drawn)


def _split_searched(pending: list[_Pending], budget: int) -> None:
    """Split the nodes of ``pending`` whose search found a split.

    Classification children get their statistics here, not when popped: one
    ``bincount`` over the split nodes' rows, keyed by (node, side, class),
    counts every child's classes from the masks either kernel drew.  A child's
    value is ``counts / n``, the division ``_node_value`` makes, and it is
    pure when one class holds all its rows, which is exactly when
    ``1 - sum(value**2) <= 1e-12``: ``n`` rows of two classes or more have a
    Gini impurity of at least ``2 (n - 1) / n**2``, above ``1e-12`` for any
    ``n`` below 10^12.  Regression children keep their per-node
    ``np.add.reduce`` statistics, as a ``bincount`` sum adds in another
    order.  The nodes are counted in slices of at most ``budget`` rows.
    """
    split = [p for p in pending if p.feature >= 0]
    if split and not split[0].growth.n_classes:
        for p in split:
            p.growth.split(p, int(np.count_nonzero(p.mask)))
        return
    for part in _slices(split, [len(p.rows) for p in split], budget):
        n_classes = max(p.growth.n_classes for p in part)
        keys = np.repeat(np.arange(0, 2 * len(part), 2), [len(p.rows) for p in part])
        keys += ~np.concatenate([p.mask for p in part])  # the right child is side 1
        keys *= n_classes
        keys += np.concatenate([p.growth.y[p.rows] for p in part])
        counts = np.bincount(keys, minlength=2 * len(part) * n_classes)
        del keys  # before the children's rows are cut
        counts = counts.reshape(len(part), 2, n_classes)
        sizes = counts.sum(axis=2)
        values = counts / np.maximum(sizes, 1)[:, :, None]
        pure = (values.max(axis=2) == 1.0).tolist()
        for p, (left, right), n_left, (left_pure, right_pure) in zip(
            part, values, sizes[:, 0].tolist(), pure
        ):
            own = p.growth.n_classes
            p.growth.split(p, n_left, ((left[:own], left_pure), (right[:own], right_pure)))


def grow_trees(trees: list, X, y: np.ndarray, samples: list) -> None:
    """Fit ``trees`` — unfitted, one kind, equal hyper-parameters — in lockstep.

    ``X`` is a float matrix or a :class:`~repro.ml.binning.BinnedMatrix`
    (histogram kernel only; a float matrix is binned once for the whole
    group), ``y`` the validated target and ``samples[i]`` tree ``i``'s
    training rows (``None`` for all rows, repeats allowed).  Every tree comes
    out exactly as if grown alone: the group only decides which node searches
    share a numpy call.  Steps are sliced so no search call uses more array
    cells (gathered codes, histogram bins and scored cuts) than the larger of
    one tree's root search and :data:`_STEP_CELLS_FLOOR`.
    """
    method = resolve_tree_method(trees[0].tree_method)
    if isinstance(X, BinnedMatrix):
        if method == "exact":
            raise ValueError(
                "the exact kernel cannot train on a BinnedMatrix; "
                "pass the float matrix instead"
            )
        binned = X
    elif method == "hist":
        binned = BinnedMatrix.from_matrix(X, max_bins=trees[0].max_bins)
    else:
        binned = None
    n_rows, n_features = X.shape
    growths = []
    for tree, sample in zip(trees, samples):
        rows = np.arange(n_rows) if sample is None else np.asarray(sample, dtype=np.int64)
        growths.append(_Growth(tree, tree._training_targets(y, sample), rows, n_features))
    n_bins = int(binned.n_bins.max()) if binned is not None and n_features else 0
    budget = max(_STEP_CELLS_FLOOR, *(g.search_cells(g.n_total, n_bins) for g in growths))
    while True:
        pending = [p for p in (g.next_split() for g in growths) if p is not None]
        if not pending:
            break
        _draw_candidates(pending)
        if binned is not None:
            _hist_step(pending, binned, n_bins, budget)
        else:
            for p in pending:
                _exact_search(p, X)
        _split_searched(pending, budget)
    for growth in growths:
        growth.finish()


class _BaseDecisionTree(BaseEstimator):
    """Shared CART machinery: fitting, inference and persistence."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
        tree_method: str | None = None,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self._nodes: list[_Node] = []
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X, y, sample_indices: np.ndarray | None = None):
        """Grow the tree on the training data.

        ``X`` may be a float matrix or a prebuilt (shared)
        :class:`~repro.ml.binning.BinnedMatrix`; ``sample_indices`` restricts
        training to the given rows (with repeats — a bootstrap draw) without
        copying the data.
        """
        X, y = check_fit_inputs(X, y)
        grow_trees([self], X, y, [sample_indices])
        return self

    # subclasses provide these -------------------------------------------------

    def _training_targets(self, y: np.ndarray, sample_indices) -> np.ndarray:
        """The per-row values construction reads (the target itself by default)."""
        return y

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray, value: np.ndarray) -> float:
        """Impurity of a node holding ``y``, whose ``_node_value`` is ``value``."""
        raise NotImplementedError

    def _best_split_for_feature(
        self, values: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        """Return ``(impurity_decrease, threshold)`` or ``(-inf, 0)`` if none."""
        raise NotImplementedError

    def _hist_gains(
        self,
        flat: np.ndarray,
        y: np.ndarray,
        k: int,
        shape: tuple[int, int],
        cuts: np.ndarray,
        n_left: np.ndarray,
        m: np.ndarray,
    ) -> np.ndarray:
        """Impurity decreases of the cuts ``codes <= bin`` at ``cuts``.

        A slot is one (node, candidate feature) pair.  ``flat`` holds each
        gathered code offset by ``slot * n_bins`` (the shared bincount key of
        the ``shape == (slots, n_bins)`` histogram grid), row-major over the
        searched rows and their ``k`` candidates, and ``y`` those rows'
        targets.  ``cuts`` are flat grid positions, ``n_left`` the rows left
        of each cut and ``m`` each slot's node size.
        """
        raise NotImplementedError

    # inference ------------------------------------------------------------------

    def _predict_values(self, X: np.ndarray) -> np.ndarray:
        """Route every row to a leaf and return the stacked leaf values."""
        X = check_array(X)
        if not self._nodes:
            raise RuntimeError("tree must be fitted before prediction")
        out = np.empty((X.shape[0], len(self._nodes[0].value)), dtype=np.float64)
        pending = [(0, np.arange(X.shape[0]))]
        while pending:
            node_index, indices = pending.pop()
            node = self._nodes[node_index]
            if node.feature < 0 or len(indices) == 0:
                out[indices] = node.value
                continue
            mask = X[indices, node.feature] <= node.threshold
            pending.append((node.right, indices[~mask]))
            pending.append((node.left, indices[mask]))
        return out

    # persistence ----------------------------------------------------------------

    _PARAM_NAMES = (
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "max_features",
        "random_state",
        "tree_method",
        "max_bins",
    )

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The fitted tree as ``(plain doc, named arrays)``.

        The doc is JSON-serialisable (hyper-parameters and shape info); node
        structure travels as flat arrays suited to the binary page format of
        :mod:`repro.serving.artifact`.  :meth:`from_state` inverts it exactly:
        a round-tripped tree predicts bit-identically.
        """
        if not self._nodes:
            raise RuntimeError("cannot serialise an unfitted tree")
        doc = {
            "params": {name: getattr(self, name) for name in self._PARAM_NAMES},
            "n_features": int(self.n_features_),
        }
        arrays = {
            "feature": np.array([n.feature for n in self._nodes], dtype=np.int32),
            "threshold": np.array([n.threshold for n in self._nodes], dtype=np.float64),
            "left": np.array([n.left for n in self._nodes], dtype=np.int32),
            "right": np.array([n.right for n in self._nodes], dtype=np.int32),
            "values": np.stack([n.value for n in self._nodes]).astype(np.float64),
            "importances": np.asarray(self.feature_importances_, dtype=np.float64),
        }
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        params = doc["params"]
        for name in self._PARAM_NAMES:
            if name in params:
                setattr(self, name, params[name])
        self.n_features_ = int(doc["n_features"])
        self._nodes = [
            _Node(
                int(feature),
                float(threshold),
                int(left),
                int(right),
                np.asarray(value, dtype=np.float64),
            )
            for feature, threshold, left, right, value in zip(
                arrays["feature"],
                arrays["threshold"],
                arrays["left"],
                arrays["right"],
                arrays["values"],
            )
        ]
        self.feature_importances_ = np.asarray(arrays["importances"], dtype=np.float64)

    @classmethod
    def from_state(cls, doc: dict, arrays: dict[str, np.ndarray]):
        """Rebuild a fitted tree written by :meth:`to_state`."""
        tree = cls()
        tree._restore_state(doc, arrays)
        return tree

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return len(self._nodes)

    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        if not self._nodes:
            return 0
        deepest = 0
        pending = [(0, 0)]
        while pending:
            node_index, level = pending.pop()
            node = self._nodes[node_index]
            if node.feature < 0:
                deepest = max(deepest, level)
            else:
                pending.append((node.left, level + 1))
                pending.append((node.right, level + 1))
        return deepest


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regression tree minimising within-node variance."""

    def predict(self, X) -> np.ndarray:
        """Predict the mean target of the leaf each row falls into."""
        return self._predict_values(X)[:, 0]

    # np.mean / np.var without their Python wrappers: the same pairwise
    # np.add.reduce and the same divisions, so every bit is theirs
    def _node_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([np.add.reduce(y) / len(y)])

    def _node_impurity(self, y: np.ndarray, value: np.ndarray) -> float:
        d = y - value[0]
        d *= d
        return float(np.add.reduce(d) / len(y))

    def _best_split_for_feature(self, values, y) -> tuple[float, float]:
        order = np.argsort(values, kind="stable")
        v, t = values[order], y[order]
        n = len(t)
        if n < 2:
            return -np.inf, 0.0
        # candidate boundaries: positions where the feature value changes
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if len(boundaries) == 0:
            return -np.inf, 0.0
        csum = np.cumsum(t)
        total_sum = csum[-1]
        n_left = boundaries + 1
        n_right = n - n_left
        left_sum = csum[boundaries]
        right_sum = total_sum - left_sum
        # variance decrease with the sum-of-squares terms cancelled out:
        # (sse_parent - sse_left - sse_right) == lhs below, since the raw
        # second moments appear once positively and once negatively
        gains = (left_sum**2 / n_left + right_sum**2 / n_right - total_sum**2 / n) / n
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return -np.inf, 0.0
        boundary = boundaries[best]
        threshold = (v[boundary] + v[boundary + 1]) / 2.0
        return float(gains[best]), float(threshold)

    def _hist_gains(self, flat, y, k, shape, cuts, n_left, m) -> np.ndarray:
        sums = np.bincount(flat, weights=np.repeat(y, k), minlength=shape[0] * shape[1])
        cum_sum = np.cumsum(sums.reshape(shape), axis=1)
        slot = cuts // shape[1]
        m = m[slot]
        total_sum = cum_sum[:, -1][slot]
        left_sum = cum_sum.ravel()[cuts]
        right_sum = total_sum - left_sum
        n_right = m - n_left
        # same cancelled variance-decrease expression as the exact kernel, so
        # the two kernels stay bit-identical where binning is lossless
        return (left_sum**2 / n_left + right_sum**2 / n_right - total_sum**2 / m) / m


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classification tree minimising Gini impurity."""

    def _training_targets(self, y: np.ndarray, sample_indices) -> np.ndarray:
        """Class codes into ``classes_``, which come from the sampled rows only.

        That matches a fit on the materialised bootstrap sample.  Rows outside
        the sample may get the out-of-range code ``len(classes_)``;
        construction never visits them, so the codes are harmless.
        """
        y_seen = y if sample_indices is None else y[np.asarray(sample_indices)]
        self.classes_ = np.unique(y_seen)
        # the narrowest integer type: a lockstep group holds every tree's codes
        codes = np.searchsorted(self.classes_, y)
        return codes.astype(np.min_scalar_type(len(self.classes_)))

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability estimates (leaf class frequencies)."""
        return self._predict_values(X)

    def predict(self, X) -> np.ndarray:
        """Predict the majority class of the leaf each row falls into."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """See :meth:`_BaseDecisionTree.to_state`; adds the class vector."""
        doc, arrays = super().to_state()
        arrays["classes"] = np.asarray(self.classes_, dtype=np.float64)
        return doc, arrays

    def _restore_state(self, doc: dict, arrays: dict[str, np.ndarray]) -> None:
        super()._restore_state(doc, arrays)
        self.classes_ = np.asarray(arrays["classes"], dtype=np.float64)

    def _node_value(self, codes: np.ndarray) -> np.ndarray:
        counts = np.bincount(codes, minlength=len(self.classes_))
        return counts / max(len(codes), 1)

    def _node_impurity(self, codes: np.ndarray, value: np.ndarray) -> float:
        return float(1.0 - (value**2).sum())

    def _best_split_for_feature(self, values, codes) -> tuple[float, float]:
        order = np.argsort(values, kind="stable")
        v = values[order]
        c = codes[order].astype(np.int64)
        n = len(c)
        if n < 2:
            return -np.inf, 0.0
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if len(boundaries) == 0:
            return -np.inf, 0.0
        n_classes = len(self.classes_)
        one_hot = np.zeros((n, n_classes), dtype=np.float64)
        one_hot[np.arange(n), c] = 1.0
        cum_counts = np.cumsum(one_hot, axis=0)
        total_counts = cum_counts[-1]
        left_counts = cum_counts[boundaries]
        right_counts = total_counts - left_counts
        n_left = (boundaries + 1).astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        gini_parent = 1.0 - np.sum((total_counts / n) ** 2)
        gains = gini_parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return -np.inf, 0.0
        boundary = boundaries[best]
        threshold = (v[boundary] + v[boundary + 1]) / 2.0
        return float(gains[best]), float(threshold)

    def _hist_gains(self, flat, codes, k, shape, cuts, n_left, m) -> np.ndarray:
        n_classes = len(self.classes_)
        keys = flat * n_classes
        keys += np.repeat(codes, k)
        joint = np.bincount(keys, minlength=shape[0] * shape[1] * n_classes)
        del keys
        # running counts summed in place as integers and cast once gathered:
        # the exact values of a float cumsum, with one histogram grid alive
        joint = joint.reshape(*shape, n_classes)
        np.cumsum(joint, axis=1, out=joint)
        slot = cuts // shape[1]
        total_counts = joint[:, -1, :].astype(np.float64)  # (slots, n_classes)
        left = joint.reshape(-1, n_classes)[cuts].astype(np.float64)  # (cuts, n_classes)
        del joint
        right = total_counts[slot]
        right -= left
        n_left = n_left.astype(np.float64)
        m_cut = m[slot]
        n_right = m_cut - n_left
        # class shares squared in place: these are the step's widest arrays
        left /= n_left[:, None]
        left **= 2
        right /= n_right[:, None]
        right **= 2
        gini_parent = 1.0 - ((total_counts / m[:, None]) ** 2).sum(axis=1)
        gains = gini_parent[slot]
        gains -= (n_left / m_cut) * (1.0 - left.sum(axis=1))
        gains -= (n_right / m_cut) * (1.0 - right.sum(axis=1))
        return gains
