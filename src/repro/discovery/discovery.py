"""Join discovery over a repository (the Aurum / NYU Auctus stand-in).

Discovery enumerates, for every base-table column that looks like a possible
foreign key, the repository columns it could join with, and scores each
candidate.  Scores combine:

* value overlap (MinHash containment of base values in the foreign column,
  or numeric range overlap for soft keys),
* name similarity between the two columns, and
* how "key-like" the foreign column is (uniqueness).

Like real discovery systems the output is deliberately noisy — candidates only
need a plausible overlap to be emitted; deciding whether a join actually helps
the predictive model is ARDA's job, not discovery's.
"""

from __future__ import annotations


from repro.discovery.candidates import JoinCandidate, KeyPair
from repro.discovery.profiles import ColumnProfile, profile_table_chunks
from repro.discovery.repository import DataRepository, RepositorySnapshot
from repro.relational.schema import CATEGORICAL, DATETIME


def _name_similarity(a: str, b: str) -> float:
    """Crude token-overlap similarity between two column names."""
    tokens_a = set(a.lower().replace("-", "_").split("_"))
    tokens_b = set(b.lower().replace("-", "_").split("_"))
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def _range_overlap(a: ColumnProfile, b: ColumnProfile) -> float:
    """Fractional overlap of the numeric ranges of two profiled columns."""
    if a.min_value is None or b.min_value is None:
        return 0.0
    low = max(a.min_value, b.min_value)
    high = min(a.max_value, b.max_value)
    if high <= low:
        return 0.0
    span_a = a.max_value - a.min_value
    if span_a <= 0:
        return 1.0
    return float(min(1.0, (high - low) / span_a))


class JoinDiscovery:
    """Enumerate and score candidate joins between a base table and a repository."""

    def __init__(
        self,
        min_score: float = 0.05,
        num_hashes: int = 64,
        max_candidates_per_table: int = 2,
    ):
        self.min_score = min_score
        self.num_hashes = num_hashes
        self.max_candidates_per_table = max_candidates_per_table

    def discover(
        self,
        base,
        repository: DataRepository | RepositorySnapshot,
        target: str | None = None,
        soft_key_columns: list[str] | None = None,
        executor=None,
    ) -> list[JoinCandidate]:
        """Return candidate joins sorted by descending relevance score.

        ``base`` is a :class:`Table` or a chunked table source; either is
        profiled chunk by chunk with mergeable states, so an out-of-core base
        is never materialised.  ``soft_key_columns`` optionally forces
        specific base columns (e.g. a timestamp) to be treated as soft keys;
        datetime columns are treated as soft automatically.

        Repository columns are profiled through the repository's
        :class:`~repro.discovery.repository.ProfileCache`, so repeated
        discovery over the same repository skips re-profiling.  The base
        table is always profiled fresh (it changes between pipelines).

        ``executor`` (a :class:`~repro.core.executor.JoinExecutor`) shards the
        repository profiling across per-(table, chunk-range) jobs via
        :meth:`DataRepository.profiles_many
        <repro.discovery.repository.DataRepository.profiles_many>`.  Sharded
        profiles are byte-identical to serial ones and the scoring loop below
        is untouched, so the candidate set *and* its ranking order are
        identical to the serial path no matter the backend — parallelism only
        changes wall-clock time.
        """
        soft_set = set(soft_key_columns or ())
        base_profiles = profile_table_chunks(base, num_hashes=self.num_hashes)
        if target is not None and target in base_profiles:
            del base_profiles[target]

        foreign_names = [n for n in repository.table_names if n != base.name]
        # served from the profile cache; for a disk-backed repository with a
        # warm sidecar this never reads a table body
        profiles = repository.profiles_many(
            foreign_names, num_hashes=self.num_hashes, executor=executor
        )

        candidates: list[JoinCandidate] = []
        for foreign_table in foreign_names:
            foreign_profiles = profiles[foreign_table]
            scored: list[tuple[float, KeyPair]] = []
            for base_name, base_profile in base_profiles.items():
                for foreign_name, foreign_profile in foreign_profiles.items():
                    pair_score, soft = self._score_pair(
                        base_profile, foreign_profile, base_name in soft_set
                    )
                    if pair_score >= self.min_score:
                        scored.append(
                            (pair_score, KeyPair(base_name, foreign_name, soft=soft))
                        )
            scored.sort(key=lambda item: -item[0])
            for pair_score, key in scored[: self.max_candidates_per_table]:
                candidates.append(
                    JoinCandidate(foreign_table=foreign_table, keys=[key], score=pair_score)
                )
        candidates.sort(key=lambda c: -c.score)
        return candidates

    def _score_pair(
        self,
        base_profile: ColumnProfile,
        foreign_profile: ColumnProfile,
        force_soft: bool,
    ) -> tuple[float, bool]:
        """Score one (base column, foreign column) pairing; returns (score, soft)."""
        # incompatible logical types never join
        base_is_cat = base_profile.ctype is CATEGORICAL
        foreign_is_cat = foreign_profile.ctype is CATEGORICAL
        if base_is_cat != foreign_is_cat:
            return 0.0, False
        name_score = _name_similarity(base_profile.column_name, foreign_profile.column_name)
        soft = force_soft or (
            not base_is_cat
            and (
                base_profile.ctype is DATETIME
                or foreign_profile.ctype is DATETIME
            )
        )
        if base_is_cat:
            overlap = base_profile.minhash.containment_in(foreign_profile.minhash)
        elif soft:
            overlap = _range_overlap(base_profile, foreign_profile)
        else:
            overlap = base_profile.minhash.containment_in(foreign_profile.minhash)
            # numeric hard keys with essentially no exact overlap may still be
            # joinable softly if their ranges overlap strongly
            if overlap < 0.05:
                range_score = _range_overlap(base_profile, foreign_profile)
                if range_score > 0.5 and name_score > 0:
                    overlap, soft = range_score * 0.5, True
        if overlap <= 0.0:
            return 0.0, soft
        key_bonus = 0.2 * foreign_profile.uniqueness
        score = 0.6 * overlap + 0.2 * name_score + key_bonus
        return float(score), soft
