// Time-ordered event queue for the discrete-event simulator.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic.
//
// Hot-path design:
//   * EventFn is an InlineFn — closures live inside the queue's slot array,
//     no per-event heap allocation (std::function would allocate for nearly
//     every capture on this path);
//   * the heap is 4-ary over 16-byte PODs {when, key}, where key =
//     seq << kSlotBits | slot. Ordering by key orders by seq, so the pop
//     order is the total order on (when, seq). A 4-ary heap is half as deep
//     as a binary one and a node's children sit side by side;
//   * the key doubles as the EventId and as the tombstone tag: a slot stores
//     the key of the event it holds, Cancel clears it (freeing the closure
//     immediately), and a heap entry whose key no longer matches its slot is
//     dead;
//   * the heap holds live events only, up to a bounded number of tombstones:
//     once dead entries outnumber live ones plus kCompactSlack, one O(n) pass
//     drops them all. Every RPC schedules a timeout it almost always cancels,
//     so without the purge the heap would grow with the timeout horizon (100x
//     the live events at fleet scale) instead of with the live set.
#ifndef URSA_SIM_EVENT_QUEUE_H_
#define URSA_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/units.h"

namespace ursa::sim {

using EventFn = InlineFn;
using EventId = uint64_t;

class EventQueue {
 public:
  // Tombstones tolerated beyond the live count before a compaction pass:
  // resident heap entries never exceed 2 * size() + kCompactSlack.
  static constexpr size_t kCompactSlack = 64;

  EventQueue() = default;

  // Schedules fn at absolute time `when`; returns an id usable with Cancel.
  // Ids are never 0, so 0 is safe as a caller-side "no event" sentinel.
  EventId Schedule(Nanos when, EventFn fn);

  // Cancels a pending event. Returns false if already fired or cancelled.
  // The event's closure is destroyed immediately.
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Heap entries currently held, tombstones included (for tests of the
  // bound above).
  size_t resident() const { return heap_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  Nanos NextTime() const;

  // Pops the earliest live event; sets *when to its timestamp.
  // Only valid when !empty().
  EventFn PopNext(Nanos* when);

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  struct Entry {
    Nanos when;
    uint64_t key;
  };
  struct Slot {
    uint64_t key = 0;  // key of the live event held here; 0 when free
    EventFn fn;
  };

  // (when, key) as one unsigned 128-bit number (the sign bit of `when`
  // flipped so signed order survives), so comparisons compile to a compare
  // and a flag, with no branch on the tie.
  static unsigned __int128 Rank(const Entry& e) {
    return static_cast<unsigned __int128>(static_cast<uint64_t>(e.when) ^ (uint64_t{1} << 63))
               << 64 |
           e.key;
  }
  static bool Before(const Entry& a, const Entry& b) { return Rank(a) < Rank(b); }
  bool Live(const Entry& e) const { return slots_[e.key & kSlotMask].key == e.key; }

  // Empties slot `slot` and returns it to the free list; the caller owns the
  // closure and the live count.
  void Retire(uint32_t slot);

  void SiftUp(size_t i) const;
  void SiftDown(size_t i) const;
  // Index of the smallest of the children starting at index `c`.
  size_t MinChild(size_t c) const;
  // Removes the heap head.
  void PopHead() const;
  // Drops tombstoned entries sitting at the heap head.
  void SkipStale() const;
  // Drops every tombstone once they outnumber live events plus the slack.
  void MaybeCompact();

  uint64_t next_seq_ = 1;  // starts at 1 so no key (and no EventId) is 0
  size_t live_ = 0;
  mutable size_t dead_ = 0;  // tombstones still in heap_
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_EVENT_QUEUE_H_
