#ifndef EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_
#define EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/local_search/objective.h"
#include "core/partition.h"
#include "graph/connectivity.h"

namespace emp {

/// One scored boundary move: `area` leaves region `from` for the adjacent
/// region `to`, changing the objective by exactly `delta`.
struct CandidateMove {
  double delta = 0.0;
  int32_t area = -1;
  int32_t from = -1;
  int32_t to = -1;
};

/// Canonical total order on candidates: (delta, area, to) ascending. Every
/// (area, to) pair appears at most once in a neighborhood, so this order is
/// strict — Tabu's move selection is therefore fully deterministic and
/// independent of enumeration order, which is what lets the incremental
/// engine reproduce the full-rebuild engine bit-for-bit.
inline bool CandidateOrderLess(const CandidateMove& a,
                               const CandidateMove& b) {
  if (a.delta != b.delta) return a.delta < b.delta;
  if (a.area != b.area) return a.area < b.area;
  return a.to < b.to;
}

/// A VisitInOrder visitor's verdict on one candidate.
enum class CandidateVerdict {
  /// Stop visiting; the candidate stays in the heap.
  kStop,
  /// Decline the candidate and continue; it stays in the heap, so it is
  /// visited again next time (use for time-dependent rejections such as
  /// tabu status).
  kKeep,
  /// Decline the candidate and continue; it leaves the heap until its area
  /// is re-scored. Use only for verdicts that depend on nothing but the
  /// area and the states of its donor and receiver regions: OnMoveApplied
  /// re-scores every area with a candidate whose endpoint region mutated,
  /// which pushes a fresh entry and so re-admits the candidate.
  kRetire,
};

/// Incremental candidate-move set for Tabu search (DESIGN.md §8).
///
/// Maintains, for every assigned area of a donor-capable region (size > 1),
/// the scored moves to each distinct adjacent foreign region. Candidates
/// persist across iterations: after a move `area: from -> to` only the
/// areas whose candidate set or deltas can have changed — the boundary
/// areas of `from` and `to` plus the foreign areas adjacent to either —
/// are re-scored, instead of rebuilding the whole neighborhood.
///
/// Selection runs over a lazy-deletion min-heap keyed by the canonical
/// (delta, area, to) order; re-scoring an area bumps its version, which
/// invalidates its stale heap entries without searching for them. A live
/// candidate is either resident in the heap (exactly once) or retired by
/// a visitor; retired candidates return when their area is re-scored.
///
/// Invariants (pinned by neighborhood_test and the golden trajectory test):
///  * after any sequence of OnMoveApplied calls, the live candidate set
///    equals what Rebuild() would produce from scratch, deltas included
///    bit-for-bit (unaffected candidates keep previously computed deltas,
///    which are exact because their two regions' member multisets did not
///    change);
///  * VisitInOrder always yields the resident candidates in canonical
///    order.
class TabuNeighborhood {
 public:
  /// `partition` and `objective` must outlive the neighborhood; the
  /// objective must track the same partition.
  TabuNeighborhood(const Partition* partition, const Objective* objective);

  /// Rebuilds every per-area candidate list and the heap from scratch.
  /// Returns the number of candidates scored (objective evaluations).
  int64_t Rebuild();

  /// Incremental update after `area` moved `from` -> `to` (partition and
  /// objective already mutated). Re-scores only the affected areas and
  /// returns the number of candidates scored.
  int64_t OnMoveApplied(int32_t area, int32_t from, int32_t to);

  /// Number of live candidate moves, resident or retired.
  int64_t live_candidates() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Visits resident candidates in canonical order until `visit` returns
  /// CandidateVerdict::kStop (or the heap is exhausted). kKeep and kStop
  /// candidates stay resident; kRetire candidates leave the heap until
  /// their area is re-scored (see CandidateVerdict). `visit` must not
  /// mutate the partition or objective; apply the chosen move after
  /// VisitInOrder returns, then call OnMoveApplied.
  template <typename Visitor>
  void VisitInOrder(Visitor&& visit) {
    popped_.clear();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapGreater());
      HeapEntry e = heap_.back();
      heap_.pop_back();
      if (!EntryLive(e)) continue;
      CandidateMove mv{e.delta, e.area, partition_->RegionOf(e.area), e.to};
      const CandidateVerdict verdict =
          visit(static_cast<const CandidateMove&>(mv));
      if (verdict == CandidateVerdict::kRetire) continue;
      popped_.push_back(e);
      if (verdict == CandidateVerdict::kStop) break;
    }
    for (const HeapEntry& e : popped_) PushEntry(e);
  }

 private:
  /// Heap entry. `version` must match the area's current version for the
  /// entry to be live; re-scoring an area bumps the version, lazily
  /// deleting its old entries.
  struct HeapEntry {
    double delta;
    int32_t area;
    int32_t to;
    uint32_t version;
  };
  /// std::push_heap/pop_heap build a max-heap, so "greater" yields the
  /// canonical minimum at the root.
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.delta != b.delta) return a.delta > b.delta;
      if (a.area != b.area) return a.area > b.area;
      return a.to > b.to;
    }
  };

  bool EntryLive(const HeapEntry& e) const {
    return area_version_[static_cast<size_t>(e.area)] == e.version;
  }
  void PushEntry(const HeapEntry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater());
  }

  /// Recomputes `area`'s candidate list (bumping its version); does not
  /// touch the heap. Returns the number of candidates scored.
  int64_t RescoreArea(int32_t area);

  /// Like RescoreArea, but when `mutated_a/b` name the two regions the
  /// triggering move touched, deltas of candidates with both endpoints
  /// untouched are carried over from the old list (bit-exact) instead of
  /// re-evaluating the objective. Full rescore when mutated_a == -1.
  int64_t RescoreAreaImpl(int32_t area, int32_t mutated_a, int32_t mutated_b);

  /// Pushes `area`'s current candidate list onto the heap.
  void PushAreaEntries(int32_t area);

  /// Drops stale entries by rebuilding the heap from the per-area lists.
  void CompactHeap();

  const Partition* partition_;
  const Objective* objective_;

  /// Per-area candidate state: version + (to, delta) pairs.
  std::vector<uint32_t> area_version_;
  std::vector<std::vector<std::pair<int32_t, double>>> area_targets_;
  std::vector<HeapEntry> heap_;
  int64_t live_ = 0;

  // Epoch-tagged scratch (no clearing between uses; a wrap resets tags).
  std::vector<uint32_t> region_seen_;
  uint32_t region_epoch_ = 0;
  std::vector<uint32_t> area_seen_;
  uint32_t area_epoch_ = 0;
  std::vector<int32_t> affected_;   // reused affected-area buffer
  std::vector<HeapEntry> popped_;   // reused by VisitInOrder
  // Previous target list of the area being rescored (delta reuse).
  std::vector<std::pair<int32_t, double>> old_targets_;
  // Batched-rescore buffers: target regions needing fresh deltas and the
  // deltas from one Objective::MoveDeltas call (reused across rescoring).
  std::vector<int32_t> batch_tos_;
  std::vector<double> batch_deltas_;
};

/// Per-region articulation-point cache for the local-search donor
/// contiguity check (DESIGN.md §8). A Tabu iteration may try many
/// candidates donating from the same region; instead of one BFS per
/// candidate (ConnectivityChecker::IsConnectedWithout), the cache runs
/// Tarjan's articulation-point pass once per (region, mutation) and
/// answers every subsequent query for that region with a binary search.
/// A region's entry is invalidated when the region mutates (the caller
/// invalidates both endpoints of every applied move).
class ArticulationCache {
 public:
  /// Both pointers must outlive the cache.
  ArticulationCache(const Partition* partition,
                    ConnectivityChecker* connectivity);

  /// True iff region `from` stays connected when `area` leaves it —
  /// exactly ConnectivityChecker::IsConnectedWithout(region.areas, area),
  /// including the degenerate cases (<= 2 members always survive; a
  /// disconnected region falls back to the BFS, since removing a node can
  /// reconnect it).
  bool DonorKeepsContiguity(int32_t from, int32_t area);

  /// Marks a region's cached articulation set stale after it mutated.
  void Invalidate(int32_t region_id);

  /// Queries answered from a valid entry / entries recomputed.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct Entry {
    bool valid = false;
    bool connected = true;
    std::vector<int32_t> cuts;  // sorted articulation points
  };

  const Partition* partition_;
  ConnectivityChecker* connectivity_;
  std::vector<Entry> entries_;  // indexed by raw region id
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_
