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

/// An open-set entry: 16 bytes.  The lexicographic modes decode the costs
/// from the key; the length-only mode keeps bends and crossings per state
/// in SearchWorkspace::side_costs().
struct HeapEntry {
  std::uint64_t key;
  int state;
};
static_assert(sizeof(HeapEntry) == 16);

/// The bends and crossings a length-only search carries beside its key.
struct SideCosts {
  int bends;
  int crossings;
};

/// Binary min-heap on HeapEntry::key with libstdc++'s sift rules, so pop
/// order (ties included) is what std::push_heap/std::pop_heap with a
/// `a.key > b.key` comparator gave, and the pinned routing digests depend on
/// this code rather than on the standard library's heap internals.  Push
/// sifts up while the parent's key is strictly greater.
inline void heap_sift_up(std::vector<HeapEntry>& h, size_t hole, HeapEntry e) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!(h[parent].key > e.key)) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

inline void heap_push(std::vector<HeapEntry>& h, HeapEntry e) {
  h.push_back(e);
  heap_sift_up(h, h.size() - 1, e);
}

/// Removes and returns the minimum of a non-empty heap.  The last entry
/// fills the root's hole: the hole first moves down to a leaf, taking the
/// right child unless its key is greater than the left's (an even length's
/// final single child is taken on its own), then the entry sifts up.
inline HeapEntry heap_pop(std::vector<HeapEntry>& h) {
  const HeapEntry top = h.front();
  const HeapEntry last = h.back();
  h.pop_back();
  const size_t len = h.size();
  if (len == 0) return top;
  size_t hole = 0;
  size_t child = 0;
  while (child < (len - 1) / 2) {
    child = 2 * (child + 1);
    child -= h[child].key > h[child - 1].key ? 1 : 0;
    h[hole] = h[child];
    hole = child;
  }
  if ((len & 1) == 0 && child == (len - 2) / 2) {
    child = 2 * (child + 1) - 1;
    h[hole] = h[child];
    hole = child;
  }
  heap_sift_up(h, hole, last);
  return top;
}

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
    /// Pocket-walk marks carry no stamp, so best() reads a marked slot as
    /// unvisited in every generation and the scrub clears it like any
    /// other; the walk's id tells its own marks from an earlier walk's.
    bool walked(int s, std::uint64_t walk) const { return slots[s] == walk; }
    void mark_walked(int s, std::uint64_t walk) const { slots[s] = walk; }
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

  /// How the last search through this workspace ended when it found no
  /// path: the states it expanded, and whether the pocket proof (rather
  /// than exhaustion or the expansion cap) stopped it.  The search writes
  /// it on every failure; it is meaningless after a success.
  struct Failure {
    long expansions = 0;
    bool pocket_proof = false;
  };
  Failure& last_failure() { return failure_; }

  /// A fresh id for one pocket walk (never 0, never stamped) and the
  /// walk's stack, which grows with the states walked.
  std::uint64_t next_walk() { return walk_id_ = walk_id_ % kKeyMask + 1; }
  std::vector<int>& walk_stack() { return walk_stack_; }

  /// Per-state bends and crossings for a length-only search over
  /// `nstates` states; grown on first use, so the other modes never pay
  /// for it.  Entry `s` is meaningful only while `s` is recorded in the
  /// current generation.
  SideCosts* side_costs(int nstates) {
    if (side_.size() < static_cast<size_t>(nstates)) side_.resize(nstates);
    return side_.data();
  }

 private:
  std::vector<std::uint64_t> slots_;
  std::vector<std::int32_t> parent_;
  std::vector<HeapEntry> heap_;
  std::vector<SideCosts> side_;
  Failure failure_;
  std::vector<int> walk_stack_;
  std::uint64_t walk_id_ = 0;
  std::uint32_t stamp_ = 0;
  size_t dirty_ = 0;  ///< slots [0, dirty_) may hold non-zero stamps
};

}  // namespace na::detail
