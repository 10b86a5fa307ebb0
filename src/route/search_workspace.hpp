// Reusable scratch state for the grid search core.
//
// Every connection search used to allocate O(W*H) `best`/`parent` vectors
// and a fresh priority queue; on large planes the allocation and paging
// cost rivals the search itself.  A SearchWorkspace keeps those arrays
// alive across searches and invalidates them with a generation stamp: a
// slot's contents are only meaningful when its stamp equals the
// workspace's current generation, so "clearing" the arrays is usually a
// counter increment.  A search uses only as many slots as the extent it
// searches (a windowed search, its window), and the periodic scrub covers
// only the slots written since the previous one.  One workspace serves one thread;
// the sharded driver keeps one per shard job.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace na::detail {

struct SearchCosts {
  int bends = 0;
  int crossings = 0;
  int length = 0;
};

struct HeapEntry {
  std::uint64_t key;
  int state;
  SearchCosts costs;
};

class SearchWorkspace {
 public:
  static constexpr std::uint64_t kUnvisited =
      std::numeric_limits<std::uint64_t>::max();

  /// Search keys pack three 20-bit cost fields, so the top 4 bits of each
  /// slot are free to hold a generation stamp.  A slot is valid only when
  /// its stamp matches the current one; stamps cycle 1..15 (0 means
  /// scrubbed), and every 15th begin() re-scrubs the slots written since
  /// the previous scrub so a stale slot can never alias a live stamp.  The
  /// array stays 8 bytes per state — the same cache footprint as the plain
  /// `best` vector it replaces — while "clearing" costs 1/15th of a fill
  /// of the recently searched extents instead of a full allocate-and-fill
  /// per search.
  static constexpr int kKeyBits = 60;
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;

  /// Prepares the workspace for a search over `nstates` states: grows the
  /// arrays if needed and invalidates previous contents.  Every 15th call
  /// scrubs the slots written since the previous scrub: O(the largest
  /// extent searched since then), never O(capacity).
  void begin(int nstates) {
    const size_t need = static_cast<size_t>(nstates);
    if (slots_.size() < need) {
      slots_.resize(need);
      parent_.resize(need);
    }
    stamp_ = stamp_ % 15 + 1;
    if (stamp_ == 1) {
      // Slots at or past dirty_ were never written since the last scrub
      // (or ever), so they still hold 0.
      std::fill(slots_.begin(), slots_.begin() + dirty_, 0);
      dirty_ = need;
    } else {
      dirty_ = std::max(dirty_, need);
    }
    heap_.clear();
  }

  /// States the arrays currently hold (the largest extent searched so far).
  size_t capacity() const { return slots_.size(); }

  /// Raw pointers into the (already sized) arrays for the search hot loop.
  /// Holding them as locals lets the optimizer keep them in registers: heap
  /// pushes mutate the workspace object, so access through the workspace
  /// itself would force a data-pointer reload after every relax.  Valid
  /// until the next begin().
  struct View {
    std::uint64_t* slots;
    std::int32_t* parent;
    std::uint64_t tag;  ///< current stamp, pre-shifted into the top bits

    std::uint64_t best(int s) const {
      const std::uint64_t v = slots[s];
      return (v & ~kKeyMask) == tag ? (v & kKeyMask) : kUnvisited;
    }
    void record(int s, std::uint64_t key, int from) const {
      slots[s] = key | tag;
      parent[s] = from;
    }
  };
  View view() {
    return {slots_.data(), parent_.data(),
            static_cast<std::uint64_t>(stamp_) << kKeyBits};
  }

  std::uint64_t best(int s) const {
    const std::uint64_t v = slots_[s];
    const std::uint64_t tag = static_cast<std::uint64_t>(stamp_) << kKeyBits;
    return (v & ~kKeyMask) == tag ? (v & kKeyMask) : kUnvisited;
  }
  /// Only meaningful for states recorded in the current generation.
  int parent(int s) const { return parent_[s]; }

  /// Heap storage for the open set (managed by the search loop).
  std::vector<HeapEntry>& heap() { return heap_; }

 private:
  std::vector<std::uint64_t> slots_;
  std::vector<std::int32_t> parent_;
  std::vector<HeapEntry> heap_;
  std::uint32_t stamp_ = 0;
  size_t dirty_ = 0;  ///< slots [0, dirty_) may hold non-zero stamps
};

}  // namespace na::detail
