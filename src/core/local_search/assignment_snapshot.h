#ifndef EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_
#define EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace emp {

/// Best area -> region assignment seen by a local search (Tabu, simulated
/// annealing), maintained in O(moves since the last commit) instead of
/// one O(n) copy per improvement.
///
/// The tracker holds the best assignment plus the set of areas moved since
/// it was last committed. Every area outside that set still sits in its
/// best region, so a commit rewrites only the marked areas, and a restore
/// only has to look at them.
class BestAssignmentTracker {
 public:
  /// Starts with `partition`'s current assignment as the best.
  explicit BestAssignmentTracker(const Partition& partition)
      : best_(static_cast<size_t>(partition.num_areas())),
        marked_(static_cast<size_t>(partition.num_areas()), 0) {
    for (int32_t a = 0; a < partition.num_areas(); ++a) {
      best_[static_cast<size_t>(a)] = partition.RegionOf(a);
    }
  }

  /// Records that `area` changed region. Call for every move the search
  /// applies to the partition.
  void OnMoved(int32_t area) {
    if (marked_[static_cast<size_t>(area)] != 0) return;
    marked_[static_cast<size_t>(area)] = 1;
    moved_.push_back(area);
  }

  /// The partition's current assignment becomes the best.
  void Commit(const Partition& partition) {
    for (int32_t a : moved_) {
      best_[static_cast<size_t>(a)] = partition.RegionOf(a);
      marked_[static_cast<size_t>(a)] = 0;
    }
    moved_.clear();
  }

  /// Moves every area that diverges from the best assignment back, in
  /// ascending area order — the same mutation sequence as a full scan over
  /// all areas, so region stats and member order come out identical. The
  /// best assignment's region ids must still be alive. Single pass: each
  /// diverging area goes directly to its saved region, so no region is
  /// transiently emptied.
  void Restore(Partition* partition) {
    std::sort(moved_.begin(), moved_.end());
    for (int32_t a : moved_) {
      marked_[static_cast<size_t>(a)] = 0;
      const int32_t want = best_[static_cast<size_t>(a)];
      const int32_t have = partition->RegionOf(a);
      if (want == have) continue;
      if (have == -1) {
        partition->Assign(a, want);
      } else if (want == -1) {
        partition->Unassign(a);
      } else {
        partition->Move(a, want);
      }
    }
    moved_.clear();
  }

 private:
  std::vector<int32_t> best_;
  std::vector<uint8_t> marked_;
  std::vector<int32_t> moved_;  // marked areas, in first-move order
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_
