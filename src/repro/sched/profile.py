"""Future resource availability: the reservation timeline.

Backfilling needs to answer: *when, at the earliest, can this job get
its nodes **and** its pool memory, and on which nodes?*  The
:class:`AvailabilityProfile` answers it by replaying the future as
currently known:

* each running job returns its nodes and pool grants at its estimated
  end (walltime-bound, dilation-adjusted by the caller);
* each **reservation** (a promised future start) removes resources
  over its ``[start, end)`` window.

The profile is exact at node granularity — reservations hold concrete
node ids, not just counts — because rack-local pools make placement
identity matter: 16 free nodes spread over 4 racks cannot use a single
rack's pool the way 16 nodes in one rack can.

Implementation: a sorted release timeline with a cumulative sweep —
free-node set, pool levels, and released-node counts per breakpoint —
materialized lazily as queries reach deeper into the future and cached
thereafter.  Queries bisect into the cached sweep instead of replaying
all releases (the old implementation rescanned every release and
reservation per query, making ``earliest_start`` quadratic in the
running set).  Incremental mutation never invalidates the cache:

* :meth:`add_reservation` / :meth:`remove_reservation` are O(log n)
  locate + insert into sorted boundary arrays — the release sweep is
  untouched because reservations are layered on top of it at query
  time.  Reservations additionally live in a **interval index**: two
  sorted event timelines (one by start, one by end) that
  :meth:`earliest_start` walks *incrementally* while scanning
  breakpoints, maintaining the active reservation set and a claimed-
  node counter as resume state.  A scan therefore touches each
  reservation O(1) times instead of rescanning the whole list at
  every breakpoint — the fix for conservative backfill's
  O(depth²)-ish cycles, where ``depth`` reservations stand at once;
* :meth:`apply_start` folds a job started *mid-pass* into the profile
  by patching the affected prefix of the cached sweep in place —
  bit-for-bit equivalent to rebuilding from the post-start cluster,
  which is what EASY's hypothesis test previously did per candidate;
* :meth:`apply_release` is the inverse fold for a job *completion*:
  the job's release entry leaves the timeline and its resources join
  the base availability, again patching only the affected sweep
  prefix.  Strategies use it to keep a cached profile valid across
  job completions — previously the dominant rebuild trigger.

On top of the incremental index sits the **pass-shared sweep cursor**
(:class:`SweepCursor`, via :meth:`AvailabilityProfile.sweep_cursor`):
one scheduling pass runs many ``earliest_start`` scans against the
same profile, all anchored at the same instant, and every scan used to
rebuild the same sweep state (free-set copies, release folding,
reservation activation) from scratch.  The cursor materializes the
per-breakpoint availability states **once** — lazily, as deep as the
deepest scan reaches — and keeps them exact across
``add_reservation`` by patching the affected prefix in place, so a
pass walks the merged release/reservation timeline once instead of
once per queued job.  Since the reservation layer became persistent
(the conservative strategy retains its plan across passes), the
cursor's lifetime is no longer bounded by the pass either:

* ``rebase`` re-anchors a live cursor in place
  (:meth:`SweepCursor._rebase`) — materialized states are pure
  functions of their instant, so advancing the clock only retires the
  grid prefix at or before the new anchor;
* ``apply_start`` and ``apply_release`` are grid-local edits, so the
  cursor absorbs both folds in place (:meth:`SweepCursor._on_apply_start`
  / :meth:`SweepCursor._on_apply_release`): materialized states before
  the folded release time gain or lose exactly the folded node set
  (minus still-active reservation claims, for a release), states at or
  beyond it only shift their release-timeline index, and the folded
  time enters or leaves the breakpoint grid;
* ``remove_reservation`` and a reservation-dropping
  ``truncate_reservations`` recompute only the materialized states the
  dropped claims could touch (:meth:`SweepCursor._on_remove`) and
  retire grid times that stop being breakpoints;
* only ``clear_reservations`` — the stock pass's bulk teardown, which
  the retained-plan fast path avoids — still drops the cursor; the
  next scan rebuilds lazily.

All query results are bitwise identical to the brute-force oracle
(``tests/_oracles.py``); the equivalence suite enforces this on
randomized workloads, and end-to-end schedules are pinned by the
golden digests in ``tests/golden/``.

Overrun clamp: a running job whose estimate has already expired (only
possible under the ``none`` kill policy) is treated as ending shortly
after *now*; the classic "expected to end any moment" convention.
"""

from __future__ import annotations

import os

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

try:  # the vectorized kernel is optional; the scalar path is complete
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None

from ..workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..memdis.allocator import PoolAllocator
    from .placement import PlacementPolicy

__all__ = [
    "Reservation", "AvailabilityProfile", "SweepCursor",
    "get_kernel", "set_kernel", "set_scan_observer",
]

_OVERRUN_GRACE = 1.0  # seconds: expected end for already-overrun jobs
_EPS = 1e-9

#: Sweep-kernel selection: ``numpy`` vectorizes the cursor's
#: rejection walks over the materialized breakpoint grid, ``scalar``
#: is the pure-Python reference the differential suites anchor on,
#: and ``auto`` (the default) engages the vectorized walks only on
#: grids of at least :data:`_VEC_FLOOR` breakpoints.  All modes
#: produce bit-identical decisions and scan statistics; the flag
#: exists so a kernel regression fails a cheap parity run loudly
#: instead of leaking through a perf gate.  Selection is sampled per
#: cursor at construction (one cursor never mixes kernels mid-life).
_KERNELS = ("auto", "numpy", "scalar")

#: Grid-size floor for the ``auto`` kernel.  Vectorizing a rejection
#: walk trades a per-element Python loop (~0.3 µs/breakpoint once
#: materialized) for a handful of fixed-overhead array operations
#: (~30 µs per scan).  Re-measured on the trace-scale bench
#: (``trace_scan_kernel``: saturated 1024-node machine, near-machine-
#: width shadow scans walking the full grid): below the floor the
#: scalar walk always wins; between ~100 and ~400 breakpoints the two
#: are within host noise of each other; from ~450 up the vector walk
#: wins 1.5–2.2× and the gap widens with grid size.  The reference
#: 10k-job W-MIX simulations never exceed ~60-breakpoint grids
#: (measured p99 under 50), so ``auto`` runs them entirely on the
#: scalar walk — the vector paths are a *scale* layer for paper-grid
#: clusters with hundreds of concurrent releases, not a win at every
#: size.  ``numpy`` (forced) ignores the floor so parity suites
#: exercise the vector code on deliberately tiny grids.
_VEC_FLOOR = 96


def _default_kernel() -> str:
    name = os.environ.get("REPRO_PROFILE_KERNEL", "")
    if name:
        if name not in _KERNELS:
            raise ValueError(
                f"REPRO_PROFILE_KERNEL={name!r}: expected one of {_KERNELS}"
            )
        if name == "numpy" and _np is None:
            raise ValueError("REPRO_PROFILE_KERNEL=numpy but numpy is missing")
        if name == "auto" and _np is None:
            return "scalar"
        return name
    return "auto" if _np is not None else "scalar"


_KERNEL = _default_kernel()

#: Optional per-scan observer (see :func:`set_scan_observer`).  ``None``
#: in normal operation — the cursor's hot path pays one identity check.
_SCAN_OBSERVER: Optional[Callable[[int], None]] = None


def set_scan_observer(
    observer: Optional[Callable[[int], None]],
) -> Optional[Callable[[int], None]]:
    """Install a callback receiving every cursor scan's grid size.

    The perf harness uses this to report breakpoint-grid percentiles —
    the quantity that decides whether the ``auto`` kernel's vector
    paths engage (:data:`_VEC_FLOOR`) — without instrumenting the
    scheduler.  Pass ``None`` to uninstall; returns the previous
    observer so callers can restore it.  The observer must not mutate
    scheduler state.
    """
    global _SCAN_OBSERVER
    previous = _SCAN_OBSERVER
    _SCAN_OBSERVER = observer
    return previous


def get_kernel() -> str:
    """The sweep-kernel new cursors will use
    (``auto`` | ``numpy`` | ``scalar``)."""
    return _KERNEL


def set_kernel(name: str) -> str:
    """Select the sweep kernel for cursors built from here on; returns
    the previous selection (so tests can restore it).  ``numpy``
    forces the vector paths on every grid; ``auto`` floor-gates them
    (:data:`_VEC_FLOOR`); ``scalar`` disables them."""
    global _KERNEL
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}: expected one of {_KERNELS}")
    if name == "numpy" and _np is None:
        raise ValueError("numpy kernel requested but numpy is missing")
    if name == "auto" and _np is None:
        name = "scalar"
    previous = _KERNEL
    _KERNEL = name
    return previous


def _release_time(release: tuple) -> float:
    return release[0]


def _event_order(event: tuple) -> tuple:
    """Window-event sort key: time, then the reference tie order
    (reservation events in insertion order, start before end, then
    releases in timeline order).  The grants payload (index 4) never
    participates in comparisons."""
    return event[:4]


@dataclass(frozen=True, slots=True)
class Reservation:
    """A promised window of resources for one job."""

    job_id: int
    start: float
    end: float
    node_ids: Tuple[int, ...]
    pool_grants: Tuple[Tuple[str, int], ...]  # sorted (pool_id, MiB)

    @property
    def plan(self) -> Dict[str, int]:
        return dict(self.pool_grants)


class AvailabilityProfile:
    """Timeline of free nodes and free pool capacity.

    Built from a snapshot of the cluster plus the running set; callers
    then add (and remove) reservations.  All queries are pure — the
    profile never touches live cluster state.  :meth:`apply_start` is
    the one mutator, used when a scheduling pass starts a job and wants
    the profile to track the new cluster state without a rebuild.
    """

    def __init__(
        self,
        cluster: "Cluster",
        running: Iterable[Job],
        now: float,
        duration_of: Callable[[Job], float],
    ) -> None:
        """``duration_of(job)`` is the *total* estimated occupancy of a
        running job (e.g. its dilated walltime); the profile derives
        the remaining time from ``job.start_time``."""
        self._cluster = cluster
        self._now = now
        self._base_free: FrozenSet[int] = cluster.free_ids
        self._base_pool_free: Dict[str, int] = {
            pool.pool_id: pool.free for pool in cluster.all_pools()
        }
        # Node lists and grant dicts are referenced, not copied: both
        # are written once at job start and never mutated afterwards,
        # and the profile is ephemeral (one scheduling pass).
        releases: List[Tuple[float, Iterable[int], Dict[str, int]]] = []
        #: Any release clamped by the overrun convention?  A clamped
        #: time is a function of *this* build's ``now``, so such a
        #: profile can never be rebased to a different instant (a
        #: fresh build there would clamp differently).
        self._has_clamped_release = False
        for job in running:
            if job.start_time is None:
                continue
            est_end = job.start_time + duration_of(job)
            if est_end <= now:
                est_end = now + _OVERRUN_GRACE
                self._has_clamped_release = True
            releases.append((est_end, job.assigned_nodes, job.pool_grants))
        releases.sort(key=_release_time)  # stable: running order ties

        # The raw timeline plus a *lazily* materialized cumulative
        # sweep: most cycles only probe the first few breakpoints, so
        # cumulative states are built on demand and cached.
        self._releases = releases  # sorted (time, node_ids, grants)
        self._rel_times: List[float] = [item[0] for item in releases]
        self._rel_cum_count: List[int] = list(
            accumulate(len(item[1]) for item in releases)
        )
        self._rel_cum_free: List[FrozenSet[int]] = []  # lazy prefix
        self._rel_cum_pool: List[Dict[str, int]] = []  # lazy prefix
        # Subsequence of releases that return pool memory (window scans).
        self._grant_times: List[float] = [
            item[0] for item in releases if item[2]
        ]
        self._grant_maps: List[Dict[str, int]] = [
            item[2] for item in releases if item[2]
        ]

        self._reservations: List[Reservation] = []
        self._res_bounds: List[float] = []  # sorted starts+ends (duplicates ok)
        # Interval index: the same reservations in two sorted event
        # timelines, plus each reservation's current position in the
        # insertion-order list (the tie-order key the pool sweep uses).
        self._res_start_times: List[float] = []
        self._res_start_refs: List[Reservation] = []
        self._res_end_times: List[float] = []
        self._res_end_refs: List[Reservation] = []
        self._res_index: Dict[int, int] = {}  # id(res) -> index
        #: Bumped by :meth:`apply_start` / :meth:`apply_release`;
        #: external caches key derived results (e.g. a head shadow)
        #: on it.
        self.mutation_count = 0
        #: Pass-shared sweep cursor (see :class:`SweepCursor`); built
        #: lazily, dropped by any mutation it cannot track in place.
        self._cursor: Optional["SweepCursor"] = None

    def _ensure_swept(self, k: int) -> None:
        """Materialize cumulative sweep entries up to index ``k``."""
        cum_free = self._rel_cum_free
        cum_pool = self._rel_cum_pool
        i = len(cum_free)
        if i > k:
            return
        releases = self._releases
        cur_free = cum_free[i - 1] if i else self._base_free
        prev_pool = cum_pool[i - 1] if i else self._base_pool_free
        while i <= k:
            _, node_ids, grants = releases[i]
            cur_free = cur_free.union(node_ids)
            prev_pool = dict(prev_pool)
            if grants:
                for pool_id, amount in grants.items():
                    prev_pool[pool_id] = prev_pool.get(pool_id, 0) + amount
            cum_free.append(cur_free)
            cum_pool.append(prev_pool)
            i += 1

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def reservations(self) -> List[Reservation]:
        """A copy of the standing reservations in insertion order."""
        return list(self._reservations)

    @property
    def reservation_count(self) -> int:
        """Number of standing reservations (O(1))."""
        return len(self._reservations)

    def reservation_at(self, index: int) -> Reservation:
        """The standing reservation with insertion index ``index``.

        Insertion indices are dense and stable under removal (later
        reservations shift down) — the retained-plan walk uses this to
        identity-check each validated position.
        """
        return self._reservations[index]

    def has_release_at(self, time: float) -> bool:
        """Whether some release entry breaks exactly at ``time`` (O(log n)).

        Fold-ledger support: a completion fold at a cached scan's
        accepted breakpoint may remove that instant from the grid
        entirely — a fresh scan then answers a *different* breakpoint
        even though the instant itself stays feasible.  Callers aging
        such a cache must confirm the instant still breaks here.
        """
        i = bisect_left(self._rel_times, time)
        return i < len(self._rel_times) and self._rel_times[i] == time

    def first_reservation_start(self) -> Optional[float]:
        """Earliest standing reservation start, or None (O(1)).

        The retained-plan "nothing due yet" precondition: while every
        standing reservation starts strictly after the pass instant,
        none claims nodes at the anchor, so anchor-count probes are
        identical with or without the standing suffix.
        """
        starts = self._res_start_times
        return starts[0] if starts else None

    def sweep_cursor(self) -> "SweepCursor":
        """The shared resumable sweep over this profile.

        Created on first use and kept exact across every incremental
        mutation: ``add_reservation`` patches claims in,
        ``apply_start`` / ``apply_release`` fold release-timeline
        edits through the materialized states, ``remove_reservation``
        and a reservation-dropping ``truncate_reservations``
        recompute only the touched window, and ``rebase`` re-anchors
        the grid — so one cursor can span many passes and survive
        completion folds in between.  Only ``clear_reservations``
        drops it.  All cursor queries are bit-identical to the
        corresponding profile queries — the cursor is pure
        acceleration.
        """
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = SweepCursor(self)
        return cursor

    def rebase(self, now: float) -> bool:
        """Advance the profile clock to a later instant, in place.

        Valid — i.e., afterwards the profile is bit-identical to a
        fresh build at ``now`` **plus the same reservations re-added in
        the same insertion order** — only when nothing happened in
        between: no cluster mutation, no release at or before the new
        instant (a fresh build would clamp an overrun), and no release
        already clamped at build time (a clamped time embeds the old
        ``now``; a fresh build at the new instant would clamp to a
        different time).  The profile checks the conditions it can see
        and returns False (leaving itself untouched) when they fail;
        the *cluster unchanged* part is the caller's contract (version
        counters).

        Standing reservations survive the rebase untouched — this is
        what lets conservative backfill keep its reservation plan (and
        the cursor's materialized states) alive across passes.  A
        reservation whose window has partly or wholly expired stays
        inert through the activity tests; whether a retained plan is
        still *usable* at the new instant (no reservation due at or
        before it) is the retaining strategy's decision, not the
        profile's.  A live sweep cursor is re-anchored in place
        (:meth:`SweepCursor._rebase`) instead of dropped: the per-
        breakpoint states are pure functions of their instant, so only
        grid times at or before the new anchor leave.
        """
        if now < self._now:
            return False
        if self._has_clamped_release:
            return False
        if self._rel_times and self._rel_times[0] <= now:
            return False
        if now != self._now:
            self._now = now
            if self._cursor is not None:
                self._cursor._rebase(now)
        return True

    def add_reservation(self, reservation: Reservation) -> Reservation:
        """Register a promised window (O(log n) index inserts).

        Insertion order is semantic: the pool sweep's tie order at
        equal instants follows it, so two profiles holding equal
        reservations in different orders can answer window queries
        differently.  The replay machinery therefore always rebuilds
        or retains reservations in queue-walk order.  A live sweep
        cursor is patched in place, never dropped.
        """
        self._res_index[id(reservation)] = len(self._reservations)
        self._reservations.append(reservation)
        insort(self._res_bounds, reservation.start)
        insort(self._res_bounds, reservation.end)
        pos = bisect_right(self._res_start_times, reservation.start)
        self._res_start_times.insert(pos, reservation.start)
        self._res_start_refs.insert(pos, reservation)
        pos = bisect_right(self._res_end_times, reservation.end)
        self._res_end_times.insert(pos, reservation.end)
        self._res_end_refs.insert(pos, reservation)
        if self._cursor is not None:
            self._cursor._on_add(reservation)
        return reservation

    def remove_reservation(self, reservation: Reservation) -> None:
        """Withdraw one reservation; later insertion indices shift
        down.  Raises ``ValueError`` when it is not registered.  A
        live sweep cursor is patched in place: the claims folded into
        its materialized states are recomputed over the withdrawn
        window only."""
        # Identity-first: the common case removes the exact object just
        # added (a pass's own claim), skipping field-wise dataclass
        # equality.  Equal reservations are interchangeable for every
        # query, so falling back to equality preserves the original
        # semantics.
        reservations = self._reservations
        for index, existing in enumerate(reservations):
            if existing is reservation:
                break
        else:
            index = reservations.index(reservation)  # ValueError as before
        actual = reservations[index]
        del reservations[index]
        res_index = self._res_index
        del res_index[id(actual)]
        for later in reservations[index:]:
            res_index[id(later)] -= 1
        for bound in (actual.start, actual.end):
            del self._res_bounds[bisect_left(self._res_bounds, bound)]
        pos = bisect_left(self._res_start_times, actual.start)
        while self._res_start_refs[pos] is not actual:
            pos += 1
        del self._res_start_times[pos]
        del self._res_start_refs[pos]
        pos = bisect_left(self._res_end_times, actual.end)
        while self._res_end_refs[pos] is not actual:
            pos += 1
        del self._res_end_times[pos]
        del self._res_end_refs[pos]
        if self._cursor is not None:
            self._cursor._on_remove((actual,))

    def clear_reservations(self) -> None:
        """Drop every reservation at once (pass teardown).

        Equivalent to ``remove_reservation`` over the whole list but
        O(count): conservative backfill lays down ``depth``
        reservations per pass and discards them all before caching the
        profile for the next cycle.
        """
        if not self._reservations:
            return
        self._reservations.clear()
        self._res_index.clear()
        self._res_bounds.clear()
        self._res_start_times.clear()
        self._res_start_refs.clear()
        self._res_end_times.clear()
        self._res_end_refs.clear()
        self._cursor = None

    def truncate_reservations(self, keep: int) -> None:
        """Drop every reservation with insertion index >= ``keep``.

        The spill primitive of the retained reservation plan: when a
        pass diverges from the plan at queue position *p*, the
        validated prefix (reservations ``0..keep-1``) stands exactly as
        the pass would have rebuilt it, while the not-yet-validated
        suffix must leave before any fresh scan runs (a scan for entry
        *p* must see only the reservations of entries ahead of it).
        ``_reservations`` is maintained in insertion-index order, so
        the suffix is precisely the tail of the list.

        A no-op when nothing needs dropping (the common "every entry
        replayed" pass).  Otherwise a live cursor is patched in place:
        the materialized states inside the dropped claims' windows are
        recomputed and grid times that stop being breakpoints leave.
        """
        reservations = self._reservations
        if keep >= len(reservations):
            return
        if keep <= 0:
            self.clear_reservations()
            return
        res_index = self._res_index
        bounds = self._res_bounds
        dropped: List[Reservation] = []
        while len(reservations) > keep:
            res = reservations.pop()
            dropped.append(res)
            del res_index[id(res)]
            for bound in (res.start, res.end):
                del bounds[bisect_left(bounds, bound)]
            pos = bisect_left(self._res_start_times, res.start)
            while self._res_start_refs[pos] is not res:
                pos += 1
            del self._res_start_times[pos]
            del self._res_start_refs[pos]
            pos = bisect_left(self._res_end_times, res.end)
            while self._res_end_refs[pos] is not res:
                pos += 1
            del self._res_end_times[pos]
            del self._res_end_refs[pos]
        if self._cursor is not None:
            self._cursor._on_remove(dropped)

    # ------------------------------------------------------------------
    def apply_start(
        self,
        node_ids: Iterable[int],
        pool_grants: Dict[str, int],
        est_end: float,
    ) -> None:
        """Fold a job started at *now* into the profile, in place.

        Equivalent to rebuilding the profile from the post-start
        cluster state: the nodes and grants leave the base availability
        and come back as a release at ``est_end``.  The cached sweep is
        patched, not rebuilt — entries strictly after the insertion
        point are unchanged (the subtraction and the new release cancel
        exactly), so only the prefix is rewritten.
        """
        if est_end <= self._now:
            est_end = self._now + _OVERRUN_GRACE
            self._has_clamped_release = True
        node_ids = tuple(node_ids)  # materialize once: consumed twice below
        node_set = frozenset(node_ids)
        grants = dict(pool_grants)
        pos = bisect_right(self._rel_times, est_end)
        swept = len(self._rel_cum_free)
        # Patch the materialized prefix: those states lose the nodes
        # and grants (the job holds them until est_end).  Entries at or
        # after the insertion point are untouched — the subtraction and
        # the new release cancel exactly — and unmaterialized entries
        # need nothing: the lazy sweep will see the updated raw arrays.
        for i in range(min(pos, swept)):
            self._rel_cum_free[i] = self._rel_cum_free[i] - node_set
            if grants:
                pool_entry = self._rel_cum_pool[i]
                for pool_id, amount in grants.items():
                    pool_entry[pool_id] = pool_entry.get(pool_id, 0) - amount
        if pos <= swept:
            # State *at* the new release equals the pre-patch state
            # after the releases preceding it (resources were free).
            # A patched prefix entry must be un-patched to recover it;
            # the base (pos == 0) has not been shrunk yet.
            if pos:
                entry_free = self._rel_cum_free[pos - 1].union(node_set)
                entry_pool = dict(self._rel_cum_pool[pos - 1])
                for pool_id, amount in grants.items():
                    entry_pool[pool_id] = entry_pool.get(pool_id, 0) + amount
            else:
                entry_free = self._base_free
                entry_pool = dict(self._base_pool_free)
            self._rel_cum_free.insert(pos, entry_free)
            self._rel_cum_pool.insert(pos, entry_pool)
        self._base_free = self._base_free - node_set
        for pool_id, amount in grants.items():
            self._base_pool_free[pool_id] = (
                self._base_pool_free.get(pool_id, 0) - amount
            )
        self._rel_times.insert(pos, est_end)
        self._releases.insert(pos, (est_end, node_ids, grants))
        released = self._rel_cum_count[pos - 1] if pos else 0
        self._rel_cum_count.insert(pos, released + len(node_set))
        for i in range(pos + 1, len(self._rel_cum_count)):
            self._rel_cum_count[i] += len(node_set)
        if grants:
            gpos = bisect_right(self._grant_times, est_end)
            self._grant_times.insert(gpos, est_end)
            self._grant_maps.insert(gpos, grants)
        self.mutation_count += 1
        if self._cursor is not None:
            self._cursor._on_apply_start(node_set, est_end)

    def apply_release(
        self,
        node_ids: Iterable[int],
        pool_grants: Dict[str, int],
        est_end: float,
    ) -> bool:
        """Fold a job *completion* into the profile, in place.

        The exact inverse of :meth:`apply_start`: the job's release
        entry (located by its estimated end plus node set) leaves the
        timeline, and its nodes and grants join the base availability.
        Materialized sweep entries strictly before the removed entry
        gain the resources; entries after it are untouched (they
        already included the release).  Equivalent to rebuilding the
        profile from the post-completion cluster state.

        Returns False — leaving the profile untouched — when the fold
        cannot be represented: a clamped (overrun) release embeds the
        build instant, and a missing entry means the caller's view of
        the running set has diverged from the profile's.
        """
        if self._has_clamped_release:
            return False
        node_tuple = tuple(node_ids)
        grants = dict(pool_grants)
        rel_times = self._rel_times
        pos = bisect_left(rel_times, est_end)
        total = len(rel_times)
        while pos < total and rel_times[pos] == est_end:
            _, entry_nodes, entry_grants = self._releases[pos]
            if (
                entry_nodes is node_ids or tuple(entry_nodes) == node_tuple
            ) and entry_grants == grants:
                break
            pos += 1
        else:
            return False
        entry_grants = self._releases[pos][2]
        node_set = frozenset(node_tuple)
        if self._rel_cum_free:
            # Unlike apply_start (mid-pass, hot sweep), releases land
            # between passes: dropping the materialized sweep is
            # cheaper than rewriting a long prefix of frozensets, and
            # the lazy sweep rebuilds on demand from the updated raw
            # timeline.
            self._rel_cum_free.clear()
            self._rel_cum_pool.clear()
        self._base_free = self._base_free | node_set
        for pool_id, amount in grants.items():
            self._base_pool_free[pool_id] = (
                self._base_pool_free.get(pool_id, 0) + amount
            )
        del rel_times[pos]
        del self._releases[pos]
        count = len(node_set)
        cum = self._rel_cum_count
        del cum[pos]
        for i in range(pos, len(cum)):
            cum[i] -= count
        if entry_grants:
            gpos = bisect_left(self._grant_times, est_end)
            while self._grant_maps[gpos] is not entry_grants:
                gpos += 1
            del self._grant_times[gpos]
            del self._grant_maps[gpos]
        self.mutation_count += 1
        if self._cursor is not None:
            self._cursor._on_apply_release(node_set, est_end)
        return True

    # ------------------------------------------------------------------
    def breakpoints(
        self, after: Optional[float] = None, not_after: Optional[float] = None
    ) -> List[float]:
        """Times at which availability can change, ascending.

        Candidate start instants for any job: *now* (or ``after``) plus
        every future release/reservation boundary.  ``not_after``
        truncates the list to boundaries at or before that time (plus
        the start instant) — callers that stop scanning there anyway
        skip the set/sort work for the excluded tail.
        """
        start = self._now if after is None else max(after, self._now)
        rel = self._rel_times
        bounds = self._res_bounds
        lo = bisect_right(rel, start)
        blo = bisect_right(bounds, start)
        hi = len(rel) if not_after is None else bisect_right(rel, not_after)
        bhi = len(bounds) if not_after is None else bisect_right(bounds, not_after)
        # Two-pointer merge with dedup of the (already sorted) release
        # and reservation-boundary tails — same list sorted(set(...))
        # would produce, without hashing every float.
        out = [start]
        last = start
        i, j = lo, blo
        while i < hi and j < bhi:
            a, b = rel[i], bounds[j]
            if a <= b:
                if a != last:
                    out.append(a)
                    last = a
                i += 1
            else:
                if b != last:
                    out.append(b)
                    last = b
                j += 1
        while i < hi:
            a = rel[i]
            if a != last:
                out.append(a)
                last = a
            i += 1
        while j < bhi:
            b = bounds[j]
            if b != last:
                out.append(b)
                last = b
            j += 1
        return out

    # ------------------------------------------------------------------
    def _nodes_at(self, time: float) -> FrozenSet[int]:
        """Free node set at instant ``time`` (cached-sweep bisect)."""
        k = bisect_right(self._rel_times, time + _EPS)
        if k:
            self._ensure_swept(k - 1)
            base = self._rel_cum_free[k - 1]
        else:
            base = self._base_free
        if not self._reservations:
            return base
        free: Optional[set] = None
        for res in self._reservations:
            if res.start <= time + _EPS and time < res.end - _EPS:
                if free is None:
                    free = set(base)
                free.difference_update(res.node_ids)
        return base if free is None else frozenset(free)

    def _pool_at(self, time: float) -> Dict[str, int]:
        """Free pool MiB at instant ``time`` (always a fresh dict)."""
        k = bisect_right(self._rel_times, time + _EPS)
        if k:
            self._ensure_swept(k - 1)
            pool = dict(self._rel_cum_pool[k - 1])
        else:
            pool = dict(self._base_pool_free)
        for res in self._reservations:
            if res.start <= time + _EPS and time < res.end - _EPS:
                for pool_id, amount in res.pool_grants:
                    pool[pool_id] = pool.get(pool_id, 0) - amount
        return pool

    def free_at(self, time: float) -> Tuple[FrozenSet[int], Dict[str, int]]:
        """Free node set and pool free MiB at instant ``time``."""
        return self._nodes_at(time), self._pool_at(time)

    # ------------------------------------------------------------------
    def _window_nodes(self, start: float, end: float) -> FrozenSet[int]:
        """Nodes free *throughout* ``[start, end)``: free at ``start``
        minus any node claimed by a reservation beginning inside the
        window (releases only add)."""
        free = self._nodes_at(start)
        if self._reservations:
            claimed: Optional[set] = None
            for res in self._reservations:
                if start + _EPS < res.start < end - _EPS:
                    if claimed is None:
                        claimed = set()
                    claimed.update(res.node_ids)
            if claimed:
                free = frozenset(free - claimed)
        return free

    @staticmethod
    def _apply_pool_events(
        pool: Dict[str, int], pool_min: Dict[str, int], events: List[tuple]
    ) -> None:
        """Sweep window events over the level series starting at
        ``pool``, folding the running per-pool minimum into
        ``pool_min`` in place.

        Event order at equal times replicates the reference
        implementation exactly (reservation events in insertion order,
        start before end, then releases in timeline order) — the
        running minimum is order-sensitive within an instant.  This is
        the single home of that tie-order contract; both window_free
        and earliest_start route through it.
        """
        events.sort(key=_event_order)
        level = dict(pool)
        for _, _, _, _, grants, sign in events:
            pairs = (
                grants.items() if isinstance(grants, dict) else dict(grants).items()
            )
            for pool_id, amount in pairs:
                level[pool_id] = level.get(pool_id, 0) + sign * amount
                if level[pool_id] < pool_min.get(pool_id, 0):
                    pool_min[pool_id] = level[pool_id]

    def _window_pool_min(self, start: float, end: float) -> Dict[str, int]:
        """Per-pool minimum free capacity over ``[start, end)``: a
        reservation starting mid-window dips availability, so the
        level series inside the window is swept tracking the minimum.
        """
        pool = self._pool_at(start)
        pool_min = dict(pool)
        if not self._reservations:
            return pool_min
        events: List[tuple] = []
        for j, res in enumerate(self._reservations):
            if start + _EPS < res.start < end - _EPS:
                events.append((res.start, 0, j, 0, res.pool_grants, -1))
            if start + _EPS < res.end < end - _EPS:
                events.append((res.end, 0, j, 1, res.pool_grants, +1))
        lo = bisect_right(self._grant_times, start + _EPS)
        hi = bisect_left(self._grant_times, end - _EPS)
        for k in range(lo, hi):
            events.append(
                (self._grant_times[k], 1, k, 0, self._grant_maps[k], +1)
            )
        if events:
            self._apply_pool_events(pool, pool_min, events)
        return pool_min

    def window_free(
        self, start: float, duration: float
    ) -> Tuple[FrozenSet[int], Dict[str, int]]:
        """Nodes free *throughout* ``[start, start+duration)`` and the
        per-pool minimum free capacity over the window."""
        end = start + duration
        return self._window_nodes(start, end), self._window_pool_min(start, end)

    # ------------------------------------------------------------------
    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
        not_after: Optional[float] = None,
    ) -> Optional[Reservation]:
        """Earliest reservation satisfying nodes (and, when
        ``memory_aware``, pool memory) for the job's whole window.

        Without ``not_after``, returns ``None`` only when the job
        cannot run even on an empty machine (too many nodes, or remote
        demand exceeding total pool reach) — callers treat that as
        "reject".  With ``not_after``, the scan stops once breakpoints
        exceed that bound and returns ``None`` — for callers that only
        need "can it start by T?" (EASY's no-delay check), which makes
        a negative answer cost a handful of breakpoints instead of a
        walk to the end of the timeline.

        The scan walks the breakpoint sweep in time order.  Two
        prunings keep it cheap without changing any answer: the
        released-node prefix sum bounds the free count from above (so
        hopeless breakpoints are skipped without materializing a set —
        release node sets are disjoint on a real cluster, and an
        overcount can only *fail* to prune), and the pool minimum (the
        expensive half of a window query) is only computed once the
        node-count check passes.

        Reservations are consumed through the interval index: the scan
        keeps the *active* reservation set (and a claimed-node
        counter) as resume state, advancing two pointers over the
        start- and end-sorted event timelines as ``t`` grows, and
        locates window-crossing events by bisect.  Each standing
        reservation is therefore touched O(1) times per scan instead
        of once per breakpoint — with ``depth`` standing reservations
        (conservative backfill) that is the difference between
        O(B + R) and O(B·R) per queued job.
        """
        nodes_needed = job.nodes
        rel_times = self._rel_times
        cum_count = self._rel_cum_count
        base_count = len(self._base_free)
        reservations = self._reservations
        releases = self._releases
        grant_times = self._grant_times
        grant_maps = self._grant_maps
        res_index = self._res_index
        start_times = self._res_start_times
        start_refs = self._res_start_refs
        end_times = self._res_end_times
        end_refs = self._res_end_refs
        num_res = len(reservations)
        # Sweep resume state, all updated incrementally as t advances:
        # the reservations active at the current t (by identity), how
        # many active claims cover each node, the released-so-far node
        # set (``avail``), and ``cur`` — available minus claimed, the
        # candidate free set maintained in place so an evaluated
        # breakpoint costs O(changes) instead of O(cluster).
        si = ei = hi_s = 0
        active: Dict[int, Reservation] = {}
        claimed: Dict[int, int] = {}
        avail: Optional[set] = None
        cur: Optional[set] = None
        last_k = 0
        # Window-start claims: reservations whose start falls inside
        # the *current* candidate window (t, t+duration).  Both window
        # edges move right as t grows, so the member set is maintained
        # by two more monotone pointers (``si`` doubles as the left
        # edge), and ``overlap`` — how many claimed-for-the-window
        # nodes are in ``cur`` — is kept exact at every mutation of
        # either side, making the rejection test O(1) per breakpoint.
        ws_claim: Dict[int, int] = {}
        overlap = 0
        # Tighten the count bound for EASY's trial shape: a single
        # reservation that is active from `now` past the scan cap and
        # whose nodes are base-free subtracts exactly its node count
        # from every window in the scan (base and releases are
        # disjoint, so the arithmetic is exact, and an upper bound can
        # only fail to prune — never prune a feasible breakpoint).
        tighten = 0
        if len(reservations) == 1 and not_after is not None:
            only = reservations[0]
            trial_nodes = frozenset(only.node_ids)
            if (
                only.start <= self._now + _EPS
                and only.end - _EPS > not_after
                and self._base_free.issuperset(trial_nodes)
            ):
                tighten = len(trial_nodes)
        for t in self.breakpoints(after=after, not_after=not_after):
            if not_after is not None and t > not_after:
                return None  # only the start instant can exceed the cap
            t_eps = t + _EPS
            k = bisect_right(rel_times, t_eps)
            if base_count + (cum_count[k - 1] if k else 0) - tighten < nodes_needed:
                continue
            end = t + duration
            end_eps = end - _EPS
            # Catch the sweep state up to t: fold releases into the
            # available set, then activate/retire reservations and
            # slide the window-start range.  The candidate free set
            # ``cur`` and the ``overlap`` counter track every change
            # in place.
            if cur is None:
                avail = set(self._base_free)
                cur = set(avail)
            while last_k < k:
                for node_id in releases[last_k][1]:
                    avail.add(node_id)
                    if node_id not in claimed and node_id not in cur:
                        cur.add(node_id)
                        if node_id in ws_claim:
                            overlap += 1
                last_k += 1
            if num_res:
                while si < num_res and start_times[si] <= t_eps:
                    res = start_refs[si]
                    if si < hi_s:
                        # Leaving the window-start range (it may also
                        # be activating, handled just below).
                        for node_id in res.node_ids:
                            left = ws_claim[node_id] - 1
                            if left:
                                ws_claim[node_id] = left
                            else:
                                del ws_claim[node_id]
                                if node_id in cur:
                                    overlap -= 1
                    si += 1
                    # Same activity test as the one-shot queries; a
                    # reservation already over by its own start never
                    # enters the active set.
                    if t < res.end - _EPS:
                        active[id(res)] = res
                        for node_id in res.node_ids:
                            held = claimed.get(node_id, 0)
                            claimed[node_id] = held + 1
                            if not held and node_id in cur:
                                cur.discard(node_id)
                                if node_id in ws_claim:
                                    overlap -= 1
                while ei < num_res and end_times[ei] - _EPS <= t:
                    res = end_refs[ei]
                    ei += 1
                    key = id(res)
                    if key in active:
                        del active[key]
                        for node_id in res.node_ids:
                            left = claimed[node_id] - 1
                            if left:
                                claimed[node_id] = left
                            else:
                                del claimed[node_id]
                                if node_id in avail and node_id not in cur:
                                    cur.add(node_id)
                                    if node_id in ws_claim:
                                        overlap += 1
                if hi_s < si:
                    hi_s = si  # starts at or before t_eps left the range
                while hi_s < num_res and start_times[hi_s] < end_eps:
                    for node_id in start_refs[hi_s].node_ids:
                        held = ws_claim.get(node_id, 0)
                        ws_claim[node_id] = held + 1
                        if not held and node_id in cur:
                            overlap += 1
                    hi_s += 1
            if len(cur) - overlap < nodes_needed:
                continue
            free = cur - ws_claim.keys() if ws_claim else cur
            # Node count passed — this breakpoint almost always wins,
            # so only here do the pool dicts and event lists get
            # built.  ``k`` positions the cached pool sweep.
            active_grants: Optional[list] = None
            events: Optional[list] = None
            if num_res:
                if active:
                    for res in active.values():
                        if res.pool_grants:
                            if active_grants is None:
                                active_grants = []
                            active_grants.append(res.pool_grants)
                for w in range(si, hi_s):
                    res = start_refs[w]
                    if events is None:
                        events = []
                    events.append(
                        (res.start, 0, res_index[id(res)], 0, res.pool_grants, -1)
                    )
                lo_e = bisect_right(end_times, t_eps)
                hi_e = bisect_left(end_times, end_eps, lo_e)
                for w in range(lo_e, hi_e):
                    res = end_refs[w]
                    if events is None:
                        events = []
                    events.append(
                        (res.end, 0, res_index[id(res)], 1, res.pool_grants, +1)
                    )
            if k:
                self._ensure_swept(k - 1)
            # Pool state at t, then the windowed minimum.
            pool = dict(self._rel_cum_pool[k - 1]) if k else dict(self._base_pool_free)
            if active_grants:
                for grant_pairs in active_grants:
                    for pool_id, amount in grant_pairs:
                        pool[pool_id] = pool.get(pool_id, 0) - amount
            pool_min = dict(pool)
            if reservations:
                lo = bisect_right(grant_times, t_eps)
                hi = bisect_left(grant_times, end_eps)
                if lo < hi:
                    if events is None:
                        events = []
                    for g in range(lo, hi):
                        events.append((grant_times[g], 1, g, 0, grant_maps[g], +1))
                if events:
                    self._apply_pool_events(pool, pool_min, events)
            node_ids = placement.select(
                self._cluster, free, nodes_needed, remote_per_node, pool_min
            )
            if node_ids is None:
                continue
            if not memory_aware or remote_per_node == 0:
                plan: Optional[Dict[str, int]] = {}
            else:
                plan = allocator.plan(
                    self._cluster, node_ids, remote_per_node, free_override=pool_min
                )
                if plan is None:
                    continue
            return Reservation(
                job_id=job.job_id,
                start=t,
                end=end,
                node_ids=tuple(node_ids),
                pool_grants=tuple(sorted((plan or {}).items())),
            )
        return None


class SweepCursor:
    """Pass-shared resumable sweep over one profile's merged timeline.

    One scheduling pass runs many ``earliest_start`` scans against the
    same profile — EASY's shadow plus one hypothesis trial per
    candidate, conservative backfill's one scan (or replay probe) per
    queued job — and every scan is anchored at the profile instant.
    The stock scan rebuilds its sweep state per call: two free-set
    copies, release folding, and a walk over every standing
    reservation's start/end events.  The cursor hoists the *point-in-
    time* half of that state out of the scan: for each breakpoint of
    the merged grid it materializes (lazily, in grid order, only as
    deep as scans actually reach) the exact free-node set — releases
    folded in, active reservation claims folded out — plus its size
    and the release-timeline position.  Scans then reject a breakpoint
    with one integer compare, and only the *window* half (reservations
    whose start falls inside the candidate window, which depends on
    the queried duration) is computed per scan, by bisect.

    Exactness:

    * materialized states are computed with the profile's own activity
      tests (``start <= t + eps and t < end - eps``) against the same
      cached release sweep, so a grid state equals what the stock scan
      derives at that breakpoint;
    * :meth:`AvailabilityProfile.add_reservation` keeps the cursor
      live by inserting the new bounds into the grid (fresh states,
      computed directly) and subtracting the new claim from the
      materialized points inside its window — set difference is
      idempotent, so the patch is exact without claim counts;
      withdrawals (:meth:`_on_remove`) recompute the affected window
      instead, since claim folding is not invertible from the states
      alone;
    * the release folds (:meth:`_on_apply_start` /
      :meth:`_on_apply_release`) patch states with the same float
      activity predicate :meth:`_state_at` evaluates and keep the
      grid equal to ``profile.breakpoints()`` — a stale grid time
      would be a phantom scan candidate and could move decisions;
    * availability between adjacent grid times is constant (every
      release time and reservation bound ≥ *now* is a grid time), so
      evaluating a non-grid instant against the directly computed
      state is exact as well (used by ``after=`` resumes).

    Scan statistics for the conservative plan cache's replay bounds
    (all refreshed by every :meth:`earliest_start` call):

    * :attr:`last_scan_max_reject` — the per-node bound: the largest
      *achievable free-node count* observed at any rejected breakpoint
      before the accepted start (count-pruned breakpoints contribute
      their exact free count, window-rejected ones the windowed count,
      and pool-capacity rejections the job's full node demand — a
      sentinel that keeps the bound unusable, since those rejections
      are not count-limited);
    * :attr:`last_scan_count_reject` — the same maximum over the
      count-limited rejections *only* (no sentinel).  Together with
      :attr:`last_scan_pool_rejects` this feeds the pool-level bound:
      when pool-capacity rejections occurred, the count-only maximum
      still bounds every count-limited breakpoint, and the pool-
      rejected ones are bounded separately through pool-release
      accounting (see :class:`~repro.sched.backfill.
      ConservativeBackfill`);
    * :attr:`last_scan_pool_rejects` — how many breakpoints passed the
      node-count checks but were rejected by the window-accept stage.
      Placement policies never fail once the count check passed (they
      only *order* nodes), so these are pool-capacity rejections: the
      allocator could not cover the job's remote demand over the
      window.
    """

    __slots__ = ("_p", "_times", "_free", "_counts", "_k",
                 "_numpy", "_vec_floor", "_times_rev", "_grid_rev",
                 "_np_rev", "_counts_np", "_nores_cache",
                 "last_scan_max_reject", "last_scan_count_reject",
                 "last_scan_pool_rejects")

    def __init__(self, profile: AvailabilityProfile) -> None:
        self._p = profile
        #: Merged breakpoint grid (deduplicated, ascending, anchored
        #: at the profile instant) — exactly ``profile.breakpoints()``.
        self._times: List[float] = profile.breakpoints()
        # Materialized prefix, aligned with _times: exact free set,
        # its size, and bisect_right(rel_times, t + eps).
        self._free: List[FrozenSet[int]] = []
        self._counts: List[int] = []
        self._k: List[int] = []
        # Vectorized-kernel state (see module doc): the Python lists
        # stay authoritative; numpy mirrors are rebuilt lazily when a
        # revision counter says they went stale.  ``_times_rev``
        # tracks grid-structure edits only (keys the full-grid count
        # cache), ``_grid_rev`` additionally tracks materialized-state
        # edits (keys the count mirror).
        self._numpy = _KERNEL != "scalar" and _np is not None
        self._vec_floor = 0 if _KERNEL == "numpy" else _VEC_FLOOR
        self._times_rev = 0
        self._grid_rev = 0
        self._np_rev = -1
        self._counts_np = None
        self._nores_cache: Optional[tuple] = None
        self.last_scan_max_reject: int = 0
        self.last_scan_count_reject: int = 0
        self.last_scan_pool_rejects: int = 0

    # ------------------------------------------------------------------
    def _state_at(self, t: float) -> Tuple[FrozenSet[int], int]:
        """Exact (free set, release index) at instant ``t``."""
        p = self._p
        t_eps = t + _EPS
        k = bisect_right(p._rel_times, t_eps)
        if k:
            p._ensure_swept(k - 1)
            base = p._rel_cum_free[k - 1]
        else:
            base = p._base_free
        if p._reservations:
            # Only reservations that have *started* by t can be active;
            # the start-sorted timeline bounds the walk, and one set
            # difference folds every active claim out at once.
            hi = bisect_right(p._res_start_times, t_eps)
            claims = [
                res.node_ids for res in p._res_start_refs[:hi]
                if t < res.end - _EPS
            ]
            if claims:
                base = base.difference(*claims)
        return base, k

    def _materialize_to(self, j: int) -> None:
        """Extend the materialized prefix through grid index ``j``."""
        free = self._free
        i = len(free)
        if i > j:
            return
        times = self._times
        counts = self._counts
        ks = self._k
        while i <= j:
            state, k = self._state_at(times[i])
            free.append(state)
            counts.append(len(state))
            ks.append(k)
            i += 1
        self._grid_rev += 1

    def _insert_point(self, pos: int) -> None:
        """Materialize a freshly inserted grid time at ``pos``."""
        state, k = self._state_at(self._times[pos])
        self._free.insert(pos, state)
        self._counts.insert(pos, len(state))
        self._k.insert(pos, k)

    def _rebase(self, now: float) -> None:
        """Re-anchor the grid at a later instant (profile rebase).

        Grid times at or before ``now`` leave — their availability
        intervals are in the past, and ``breakpoints()`` at the new
        instant excludes them — and ``now`` becomes the new anchor.
        Every retained materialized state stays exact: states are pure
        functions of their instant (the activity tests never consult
        the profile clock), so only the anchor state is new.  When the
        old grid already carried ``now`` as a breakpoint its state is
        reused verbatim; otherwise the anchor is computed directly
        against the same release sweep and reservation set.
        """
        self._times_rev += 1
        self._grid_rev += 1
        times = self._times
        drop = bisect_right(times, now)
        materialized = len(self._free)
        reuse = bool(drop) and times[drop - 1] == now
        cut = drop - 1 if reuse else drop
        if cut:
            del times[:cut]
            if materialized > cut:
                del self._free[:cut]
                del self._counts[:cut]
                del self._k[:cut]
            elif materialized:
                self._free.clear()
                self._counts.clear()
                self._k.clear()
        if not reuse:
            times.insert(0, now)
            if self._free:
                self._insert_point(0)

    def _on_add(self, res: Reservation) -> None:
        """Track a reservation added to the live profile.

        Called by ``add_reservation`` after the reservation is fully
        registered, so direct state computation for new grid points
        already sees it; the subtraction over existing points is
        idempotent for them.
        """
        self._times_rev += 1
        self._grid_rev += 1
        times = self._times
        free = self._free
        anchor = times[0]
        for bound in (res.start, res.end):
            if bound > anchor:
                pos = bisect_left(times, bound)
                if pos == len(times) or times[pos] != bound:
                    times.insert(pos, bound)
                    if pos < len(free):
                        self._insert_point(pos)
        if not free:
            return
        node_ids = res.node_ids
        counts = self._counts
        start, end = res.start, res.end
        lo = bisect_left(times, start - _EPS)
        hi = min(len(free), bisect_left(times, end))
        for j in range(lo, hi):
            t = times[j]
            if start <= t + _EPS and t < end - _EPS:
                state = free[j]
                if not state.isdisjoint(node_ids):
                    state = state.difference(node_ids)
                    free[j] = state
                    counts[j] = len(state)

    def _on_apply_start(self, node_set: FrozenSet[int], est_end: float) -> None:
        """Track an ``apply_start`` fold on the live profile, in place.

        Called after the profile's own patch completed.  The fold's
        effect on a point-in-time state is grid-local and exact:
        states strictly before the new release lose the started job's
        nodes (they left the base availability), states at or after it
        are unchanged (the subtraction and the new release cancel) but
        their release-timeline index shifts up by one, and the release
        time joins the breakpoint grid.  The activity predicate is the
        same float expression :meth:`_state_at` evaluates, so patched
        entries are bit-identical to direct recomputation.
        """
        self._times_rev += 1
        self._grid_rev += 1
        times = self._times
        free = self._free
        counts = self._counts
        ks = self._k
        for j in range(len(free)):
            if est_end <= times[j] + _EPS:
                ks[j] += 1
            else:
                state = free[j]
                if not state.isdisjoint(node_set):
                    state = state - node_set
                    free[j] = state
                    counts[j] = len(state)
        if est_end > times[0]:
            pos = bisect_left(times, est_end)
            if pos == len(times) or times[pos] != est_end:
                times.insert(pos, est_end)
                if pos < len(free):
                    self._insert_point(pos)

    def _on_apply_release(self, node_set: FrozenSet[int], est_end: float) -> None:
        """Track an ``apply_release`` fold on the live profile, in place.

        The inverse of :meth:`_on_apply_start`: states strictly before
        the removed release gain the completed job's nodes — minus any
        node a reservation active at that instant still claims — and
        states at or after it only shift their release-timeline index
        down.  The removed time leaves the grid unless another release
        or a reservation bound still lands there (a stale grid time
        would be a phantom candidate the stock scan never evaluates,
        which can move ``earliest_start`` decisions).
        """
        self._times_rev += 1
        self._grid_rev += 1
        times = self._times
        free = self._free
        counts = self._counts
        ks = self._k
        p = self._p
        claimants = [
            res for res in p._reservations
            if not node_set.isdisjoint(res.node_ids)
        ]
        for j in range(len(free)):
            t = times[j]
            if est_end <= t + _EPS:
                ks[j] -= 1
            else:
                add = node_set
                for res in claimants:
                    if res.start <= t + _EPS and t < res.end - _EPS:
                        add = add.difference(res.node_ids)
                        if not add:
                            break
                if add:
                    state = free[j] | add
                    free[j] = state
                    counts[j] = len(state)
        pos = bisect_left(times, est_end)
        if pos < len(times) and times[pos] == est_end and pos:
            if not self._is_breakpoint(est_end):
                del times[pos]
                if pos < len(free):
                    del free[pos]
                    del counts[pos]
                    del ks[pos]

    def _on_remove(self, dropped: Iterable[Reservation]) -> None:
        """Track withdrawn reservations on the live profile, in place.

        Claim folding is not invertible from the states alone (two
        claims may cover the same node), so every materialized state
        inside a dropped claim's activity window is recomputed against
        the post-removal profile — only those instants can differ.
        Dropped bounds leave the grid when nothing else lands there.
        """
        self._times_rev += 1
        self._grid_rev += 1
        times = self._times
        free = self._free
        counts = self._counts
        ks = self._k
        for j in range(len(free)):
            t = times[j]
            for res in dropped:
                if res.start <= t + _EPS and t < res.end - _EPS:
                    state, k = self._state_at(t)
                    free[j] = state
                    counts[j] = len(state)
                    ks[j] = k
                    break
        anchor = times[0]
        for res in dropped:
            for bound in (res.start, res.end):
                if bound <= anchor:
                    continue
                pos = bisect_left(times, bound)
                if pos < len(times) and times[pos] == bound:
                    if not self._is_breakpoint(bound):
                        del times[pos]
                        if pos < len(free):
                            del free[pos]
                            del counts[pos]
                            del ks[pos]

    def _is_breakpoint(self, t: float) -> bool:
        """Whether ``t`` is still a merged-timeline breakpoint of the
        current profile (some release time or reservation bound)."""
        p = self._p
        rel = p._rel_times
        i = bisect_left(rel, t)
        if i < len(rel) and rel[i] == t:
            return True
        bounds = p._res_bounds
        i = bisect_left(bounds, t)
        return i < len(bounds) and bounds[i] == t

    # -- vectorized kernel ---------------------------------------------
    @staticmethod
    def _assert_kernel_dtypes(times_arr, counts_arr) -> None:
        """Guard against silent dtype degradation in the kernel arrays.

        The breakpoint-time vector must stay float64 (an integer array
        would re-round same-instant grouping and cannot carry ``inf``
        release times) and every free-count vector must stay integer
        (a float count would make the `>=` demand compares drift).
        Checked every time a mirror is (re)built after fold patches —
        cheap, and a corruption here silently moves decisions.
        """
        if times_arr is not None and times_arr.dtype != _np.float64:
            raise AssertionError(
                f"kernel breakpoint grid degraded to {times_arr.dtype}"
            )
        if counts_arr is not None and not _np.issubdtype(
            counts_arr.dtype, _np.integer
        ):
            raise AssertionError(
                f"kernel free-count vector degraded to {counts_arr.dtype}"
            )

    def _sync_counts(self):
        """The int64 mirror of the materialized free-count prefix,
        rebuilt when any fold patch or materialization moved it."""
        if self._np_rev != self._grid_rev:
            arr = _np.asarray(self._counts, dtype=_np.int64)
            self._assert_kernel_dtypes(None, arr)
            self._counts_np = arr
            self._np_rev = self._grid_rev
        return self._counts_np

    def _nores_counts(self):
        """Exact free-count vector over the *whole* grid, valid only
        while no reservations stand: with releases alone, the state at
        ``t`` is the cached cumulative union at its release index, so
        one vectorized searchsorted positions every breakpoint at once
        and a length table finishes the counts — no per-point set
        materialization.  Cached until the grid or the release
        timeline changes (folds bump both counters)."""
        p = self._p
        key = (self._times_rev, p.mutation_count)
        cache = self._nores_cache
        if cache is not None and cache[0] == key:
            return cache[1], cache[2]
        rel = p._rel_times
        n = len(rel)
        if n:
            p._ensure_swept(n - 1)
        times_np = _np.asarray(self._times, dtype=_np.float64)
        rel_np = _np.asarray(rel, dtype=_np.float64)
        ks_all = _np.searchsorted(rel_np, times_np + _EPS, side="right")
        len_np = _np.empty(n + 1, dtype=_np.int64)
        len_np[0] = len(p._base_free)
        for i, state in enumerate(p._rel_cum_free):
            len_np[i + 1] = len(state)
        counts_all = len_np[ks_all]
        self._assert_kernel_dtypes(times_np, counts_all)
        self._nores_cache = (key, ks_all, counts_all)
        return ks_all, counts_all

    def _earliest_start_numpy(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float],
        memory_aware: bool,
        not_after: Optional[float],
        trial: Optional[Reservation],
        trial_nodes: Optional[FrozenSet[int]],
        trial_end_eps: float,
        trial_const: Optional[int],
        extra: Optional[float],
    ) -> Optional[Reservation]:
        """Vectorized no-reservation scan — bit-identical to the
        scalar loop (candidates in the same order, same rejection
        statistics), but the count-rejection walk is one searchsorted
        plus slice reductions over the full-grid count vector instead
        of a Python loop per breakpoint.

        Only entered when no reservations stand (EASY's shadow scans
        and trial probes): point-in-time counts are then monotone
        consequences of the release timeline alone, window-claim
        state is empty, and a trial overlay subtracts the constant
        ``trial_const`` while active.  Accepted candidates fetch the
        exact free set from the shared cumulative sweep in O(1); the
        materialized prefix is never forced.
        """
        p = self._p
        needed = job.nodes
        times = self._times
        now = p._now
        start = now if after is None else (after if after > now else now)
        count_reject = 0
        pool_rejects = 0
        ks_all, counts_all = self._nores_counts()
        total = len(times)
        cap = total if not_after is None else bisect_right(times, not_after)
        split = bisect_left(times, trial_end_eps) if trial is not None else 0

        def accept(t: float, k: int, fs: FrozenSet[int], cnt: int,
                   cnt0: int) -> Optional[Reservation]:
            nonlocal pool_rejects
            trial_active = trial is not None and t < trial_end_eps
            free = fs
            if trial_active and cnt != cnt0:
                free = fs.difference(trial_nodes)
            result = self._window_accept(
                t, t + _EPS, t + duration, t + duration - _EPS, k, free,
                job, remote_per_node, placement, allocator, memory_aware,
                trial, trial_active, 0, 0,
            )
            if result is None:
                pool_rejects += 1
            return result

        def direct(t: float) -> Optional[Reservation]:
            # Off-grid candidate (``after=`` anchor or the trial's
            # end): evaluated exactly as the scalar loop does.
            nonlocal count_reject
            fs, k = self._state_at(t)
            cnt0 = len(fs)
            cnt = cnt0
            if trial is not None and t < trial_end_eps:
                cnt -= trial_const
            if cnt < needed:
                if cnt > count_reject:
                    count_reject = cnt
                return None
            return accept(t, k, fs, cnt, cnt0)

        def walk_seg(lo: int, hi: int, adj: int) -> Optional[Reservation]:
            # Consume grid candidates [lo, hi) under a constant trial
            # adjustment: vector-skip the count rejections (their
            # exact maximum feeds the replay bound), accept-test the
            # survivors one by one.
            nonlocal count_reject
            j = lo
            bar = needed + adj
            while j < hi:
                seg = counts_all[j:hi]
                hits = _np.nonzero(seg >= bar)[0]
                if hits.size == 0:
                    m = int(seg.max()) - adj
                    if m > count_reject:
                        count_reject = m
                    return None
                f = int(hits[0])
                if f:
                    m = int(seg[:f].max()) - adj
                    if m > count_reject:
                        count_reject = m
                j += f
                k = int(ks_all[j])
                fs = p._rel_cum_free[k - 1] if k else p._base_free
                cnt0 = int(seg[f])
                result = accept(times[j], k, fs, cnt0 - adj, cnt0)
                if result is not None:
                    return result
                j += 1
            return None

        def walk(lo: int, hi: int) -> Optional[Reservation]:
            mid = min(max(split, lo), hi)
            if lo < mid:
                result = walk_seg(lo, mid, trial_const or 0)
                if result is not None:
                    return result
                lo = mid
            return walk_seg(lo, hi, 0)

        def scan() -> Optional[Reservation]:
            if start == times[0]:
                j0 = 0
            else:
                # Arbitrary resume anchor: evaluate it directly, then
                # continue on the grid strictly after it.
                if not_after is not None and start > not_after:
                    return None
                result = direct(start)
                if result is not None:
                    return result
                j0 = bisect_right(times, start)
            trial_end = extra
            e_pos = None
            if trial_end is not None:
                pos = bisect_left(times, trial_end)
                if pos < total and times[pos] == trial_end:
                    trial_end = None  # grid already carries this instant
                elif not_after is not None and trial_end > not_after:
                    trial_end = None  # beyond the cap: never evaluated
                else:
                    e_pos = pos
            if e_pos is not None:
                result = walk(j0, min(e_pos, cap))
                if result is not None:
                    return result
                result = direct(trial_end)
                if result is not None:
                    return result
                j0 = e_pos
            return walk(j0, cap)

        result = scan()
        self._record_scan(needed, count_reject, pool_rejects)
        return result

    # ------------------------------------------------------------------
    def count_at_anchor(self) -> int:
        """Exact free-node count at the profile instant (grid anchor).

        The O(1) short-circuit for replay probes capped at *now*: the
        anchor is such a probe's only candidate, so a count below the
        job's demand decides the whole scan without paying the scan's
        setup.
        """
        if not self._free:
            self._materialize_to(0)
        return self._counts[0]

    def earliest_start(
        self,
        job: Job,
        duration: float,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        after: Optional[float] = None,
        memory_aware: bool = True,
        not_after: Optional[float] = None,
        trial: Optional[Reservation] = None,
    ) -> Optional[Reservation]:
        """Bit-identical to :meth:`AvailabilityProfile.earliest_start`
        on the same profile, evaluated through the shared sweep.

        Candidate instants — the scan anchor, the grid times after it,
        and (under a trial) the trial's end — are consumed in strictly
        increasing time order, so the scan keeps the stock
        implementation's incremental shape: the window-claim state
        (reservations starting inside the candidate window) slides
        right behind two monotone pointers, while the point-in-time
        state comes from the shared materialized grid.

        ``trial`` overlays one extra reservation *without* mutating
        the profile — EASY's hypothesis test, which previously paid an
        add/query/remove round-trip per candidate.  The overlay is
        exact for trials anchored at the profile instant (EASY's
        always are): such a trial can never be a window-crossing
        reservation of any scanned breakpoint, so it contributes only
        active claims and active grants plus its end event.
        """
        p = self._p
        if trial is not None and trial.start > p._now + _EPS:
            raise ValueError("trial overlay must start at the profile instant")
        nodes_needed = job.nodes
        times = self._times
        if _SCAN_OBSERVER is not None:
            _SCAN_OBSERVER(len(times))
        now = p._now
        start = now if after is None else (after if after > now else now)
        # Rejection statistics: ``count_reject`` is the largest
        # achievable free-node count at any count-limited rejection,
        # ``pool_rejects`` counts window-accept (pool-capacity)
        # rejections.  ``last_scan_max_reject`` derives from both at
        # every exit: count-limited rejections are always below the
        # demand, so one pool rejection pins it to the demand sentinel.
        count_reject = 0
        pool_rejects = 0
        trial_nodes: Optional[FrozenSet[int]] = None
        trial_end_eps = 0.0
        trial_const: Optional[int] = None
        extra: Optional[float] = None
        if trial is not None:
            trial_nodes = frozenset(trial.node_ids)
            trial_end_eps = trial.end - _EPS
            # The trial's end is a breakpoint the stock path would
            # have gained from add_reservation; interleave it without
            # touching the shared grid.
            if trial.end > start:
                extra = trial.end
            # EASY's trial shape: no standing reservations and trial
            # nodes drawn from the base free set.  Every materialized
            # state is then a superset of the base (releases only
            # add), so the trial's overlap with any breakpoint state
            # is its full node count — an O(1) per-candidate prune.
            if not p._reservations and trial_nodes <= p._base_free:
                trial_const = len(trial_nodes)

        if (
            self._numpy
            and len(times) >= self._vec_floor
            and not p._reservations
            and (trial is None or trial_const is not None)
        ):
            # No standing reservations (EASY's regime): the whole
            # count-rejection walk vectorizes over the full grid.
            return self._earliest_start_numpy(
                job, duration, remote_per_node, placement, allocator,
                after, memory_aware, not_after, trial, trial_nodes,
                trial_end_eps, trial_const, extra,
            )

        counts = self._counts
        free_states = self._free
        ks = self._k
        reservations = p._reservations
        num_res = len(reservations)
        start_times = p._res_start_times
        start_refs = p._res_start_refs
        # Sliding window-claim state: the union of the node sets of
        # reservations whose start falls strictly inside the current
        # candidate window ``(t, t + duration)``.  Both edges move
        # right as the scan advances, so membership follows two
        # monotone pointers, and the union is rebuilt only when the
        # pointer pair moves.
        wi_lo = wi_hi = 0
        claims: FrozenSet[int] = frozenset()

        pending_direct: Optional[float] = None
        if start == times[0]:
            j = 0
        else:
            # Arbitrary resume anchor (``after=``): evaluate it
            # directly, then continue on the grid strictly after it.
            pending_direct = start
            j = bisect_right(times, start)
        total = len(times)

        # Vectorized skip-runs over the already-materialized count
        # prefix (reservation regime): a grid candidate below the
        # demand is rejected before any window state moves, so a jump
        # across a rejected run — feeding its exact maximum to the
        # replay bound — is equivalent to rejecting each in turn.  The
        # mirror is synced once per scan; in-scan materialization only
        # appends past ``skip_len``, where the scalar loop resumes.
        skip_np = None
        skip_len = 0
        skip_cap: Optional[int] = None
        if self._numpy and trial is None and total >= self._vec_floor:
            skip_np = self._sync_counts()
            skip_len = len(skip_np)
            if not_after is not None:
                skip_cap = bisect_right(times, not_after)

        while True:
            if (
                skip_np is not None
                and pending_direct is None
                and j < skip_len
            ):
                hi = skip_len if skip_cap is None else min(skip_len, skip_cap)
                if j < hi:
                    seg = skip_np[j:hi]
                    hits = _np.nonzero(seg >= nodes_needed)[0]
                    f = j + int(hits[0]) if hits.size else hi
                    if f > j:
                        m = int(seg[: f - j].max())
                        if m > count_reject:
                            count_reject = m
                        j = f
            # Next candidate in time order, consumed at selection.
            if pending_direct is not None:
                t = pending_direct
                pending_direct = None
                grid_j: Optional[int] = None
            elif extra is not None and (j >= total or extra <= times[j]):
                if j < total and extra == times[j]:
                    extra = None  # grid already carries this instant
                    continue
                t = extra
                extra = None
                grid_j = None
            elif j < total:
                t = times[j]
                grid_j = j
                j += 1
            else:
                break
            if not_after is not None and t > not_after:
                break
            # Point-in-time state.
            if grid_j is not None:
                if grid_j >= len(free_states):
                    self._materialize_to(grid_j)
                fs = free_states[grid_j]
                cnt0 = counts[grid_j]
                k = ks[grid_j]
            else:
                fs, k = self._state_at(t)
                cnt0 = len(fs)
            # Trial overlay and the O(1) count prune — the
            # overwhelmingly common rejection costs two compares.
            trial_active = trial is not None and t < trial_end_eps
            cnt = cnt0
            if trial_active:
                if trial_const is not None:
                    cnt -= trial_const
                else:
                    for node_id in trial_nodes:
                        if node_id in fs:
                            cnt -= 1
            if cnt < nodes_needed:
                if cnt > count_reject:
                    count_reject = cnt
                continue
            free: FrozenSet[int] = fs
            if trial_active and cnt != cnt0:
                free = fs.difference(trial_nodes)
            t_eps = t + _EPS
            end = t + duration
            end_eps = end - _EPS
            if num_res:
                # Slide the window edges to ``(t, t + duration)``,
                # mirroring the stock pointer discipline exactly
                # (including the degenerate-window snap).
                lo = bisect_right(start_times, t_eps, wi_lo)
                hi = bisect_left(start_times, end_eps, max(wi_hi, lo))
                if lo != wi_lo or hi != wi_hi:
                    wi_lo, wi_hi = lo, hi
                    claims = frozenset().union(
                        *[start_refs[w].node_ids for w in range(lo, hi)]
                    )
                hit = free & claims
                if hit:
                    # ``cnt`` is ``len(free)``, so this is the windowed
                    # count the stock scan derives node by node.
                    windowed = cnt - len(hit)
                    if windowed < nodes_needed:
                        if windowed > count_reject:
                            count_reject = windowed
                        continue
                    free = free - hit
            result = self._window_accept(
                t, t_eps, end, end_eps, k, free, job, remote_per_node,
                placement, allocator, memory_aware, trial, trial_active,
                wi_lo, wi_hi,
            )
            if result is not None:
                self._record_scan(nodes_needed, count_reject, pool_rejects)
                return result
            pool_rejects += 1
        self._record_scan(nodes_needed, count_reject, pool_rejects)
        return None

    def _record_scan(
        self, nodes_needed: int, count_reject: int, pool_rejects: int
    ) -> None:
        """Publish one scan's rejection statistics (see class doc)."""
        self.last_scan_max_reject = (
            nodes_needed if pool_rejects else count_reject
        )
        self.last_scan_count_reject = count_reject
        self.last_scan_pool_rejects = pool_rejects

    def _window_accept(
        self,
        t: float,
        t_eps: float,
        end: float,
        end_eps: float,
        k: int,
        free: FrozenSet[int],
        job: Job,
        remote_per_node: int,
        placement: "PlacementPolicy",
        allocator: "PoolAllocator",
        memory_aware: bool,
        trial: Optional[Reservation],
        trial_active: bool,
        wi_lo: int,
        wi_hi: int,
    ) -> Optional[Reservation]:
        """Pool view, placement, and allocation for one candidate whose
        node count already passed — the same event tuples and tie
        order as the stock scan, so the outcome is bit-identical."""
        p = self._p
        if (
            (remote_per_node == 0 or not memory_aware)
            and not placement.uses_pool_hint
        ):
            # The job draws no pool memory (its plan is {} either way)
            # and the placement cannot observe the pool hint: the
            # windowed pool view below is unconsumed, so skip building
            # it.  Decision-invisible — ``select`` with ``None`` is
            # defined identical to ``select`` with an unread hint.
            node_ids = placement.select(
                p._cluster, free, job.nodes, remote_per_node, None
            )
            if node_ids is None:
                return None
            return Reservation(
                job_id=job.job_id,
                start=t,
                end=end,
                node_ids=tuple(node_ids),
                pool_grants=(),
            )
        reservations = p._reservations
        has_res = bool(reservations) or trial is not None
        events: Optional[list] = None
        if k:
            p._ensure_swept(k - 1)
            pool = dict(p._rel_cum_pool[k - 1])
        else:
            pool = dict(p._base_pool_free)
        if has_res:
            res_index = p._res_index
            # ``wi_lo`` counts the reservations started by ``t_eps``;
            # only those can hold active grants.
            start_refs = p._res_start_refs
            for res in start_refs[:wi_lo]:
                if t < res.end - _EPS and res.pool_grants:
                    for pool_id, amount in res.pool_grants:
                        pool[pool_id] = pool.get(pool_id, 0) - amount
            if trial_active and trial.pool_grants:
                for pool_id, amount in trial.pool_grants:
                    pool[pool_id] = pool.get(pool_id, 0) - amount
            if wi_lo < wi_hi:
                for w in range(wi_lo, wi_hi):
                    res = start_refs[w]
                    if events is None:
                        events = []
                    events.append(
                        (res.start, 0, res_index[id(res)], 0,
                         res.pool_grants, -1)
                    )
            end_times = p._res_end_times
            lo_e = bisect_right(end_times, t_eps)
            hi_e = bisect_left(end_times, end_eps, lo_e)
            if lo_e < hi_e:
                end_refs = p._res_end_refs
                if events is None:
                    events = []
                for w in range(lo_e, hi_e):
                    res = end_refs[w]
                    events.append(
                        (res.end, 0, res_index[id(res)], 1,
                         res.pool_grants, +1)
                    )
            if trial is not None and t_eps < trial.end < end_eps:
                # The trial's insertion-order index is the one
                # add_reservation would have assigned it: last.
                if events is None:
                    events = []
                events.append(
                    (trial.end, 0, len(reservations), 1,
                     trial.pool_grants, +1)
                )
        pool_min = dict(pool)
        if has_res:
            grant_times = p._grant_times
            lo = bisect_right(grant_times, t_eps)
            hi = bisect_left(grant_times, end_eps)
            if lo < hi:
                if events is None:
                    events = []
                grant_maps = p._grant_maps
                for g in range(lo, hi):
                    events.append(
                        (grant_times[g], 1, g, 0, grant_maps[g], +1)
                    )
            if events:
                p._apply_pool_events(pool, pool_min, events)
        node_ids = placement.select(
            p._cluster, free, job.nodes, remote_per_node, pool_min
        )
        if node_ids is None:
            return None
        if not memory_aware or remote_per_node == 0:
            plan: Optional[Dict[str, int]] = {}
        else:
            plan = allocator.plan(
                p._cluster, node_ids, remote_per_node, free_override=pool_min
            )
            if plan is None:
                return None
        return Reservation(
            job_id=job.job_id,
            start=t,
            end=end,
            node_ids=tuple(node_ids),
            pool_grants=tuple(sorted(plan.items())) if plan else (),
        )
