#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ursa::sim {

EventId EventQueue::Schedule(Nanos when, EventFn fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    URSA_CHECK_LE(slots_.size(), kSlotMask) << "too many pending events";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  URSA_CHECK_LT(next_seq_, uint64_t{1} << (64 - kSlotBits)) << "event sequence exhausted";
  const uint64_t key = next_seq_++ << kSlotBits | slot;
  Slot& s = slots_[slot];
  s.key = key;
  s.fn = std::move(fn);
  heap_.push_back(Entry{when, key});
  SiftUp(heap_.size() - 1);
  ++live_;
  return key;
}

void EventQueue::Retire(uint32_t slot) {
  slots_[slot].key = 0;
  free_slots_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  if (id == 0 || slot >= slots_.size() || slots_[slot].key != id) {
    return false;  // already fired or cancelled (or never existed)
  }
  slots_[slot].fn = nullptr;  // release captures now
  Retire(slot);
  --live_;
  ++dead_;
  MaybeCompact();
  return true;
}

void EventQueue::SiftUp(size_t i) const {
  const Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(e, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

size_t EventQueue::MinChild(size_t c) const {
  const size_t n = heap_.size();
  if (c + 3 < n) {
    // Full family: a two-round tournament. The winners are computed with
    // arithmetic on the comparison bits, not selected, so the compiler emits
    // no branch (which would mispredict half the time).
    const size_t lo = c + Before(heap_[c + 1], heap_[c]);
    const size_t hi = c + 2 + Before(heap_[c + 3], heap_[c + 2]);
    return lo + (hi - lo) * Before(heap_[hi], heap_[lo]);
  }
  size_t best = c;
  for (size_t k = c + 1; k < n; ++k) {
    best = Before(heap_[k], heap_[best]) ? k : best;
  }
  return best;
}

void EventQueue::SiftDown(size_t i) const {
  const size_t n = heap_.size();
  const Entry e = heap_[i];
  for (size_t c = 4 * i + 1; c < n; c = 4 * i + 1) {
    const size_t best = MinChild(c);
    if (!Before(heap_[best], e)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::PopHead() const {
  // Bottom-up: the entry that refills the root is the last one, usually a
  // far-future timeout that belongs near the leaves. So walk the hole from
  // the root to a leaf along the smallest children without comparing it,
  // then sift the last entry up from there (rarely more than a step).
  const size_t n = heap_.size() - 1;  // size after the pop
  size_t i = 0;
  for (size_t c = 1; c < n; c = 4 * i + 1) {
    const size_t best = MinChild(c);
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = heap_[n];
  heap_.pop_back();
  if (i < n) {
    SiftUp(i);
  }
}

void EventQueue::SkipStale() const {
  while (!heap_.empty() && !Live(heap_.front())) {
    PopHead();
    --dead_;
  }
}

void EventQueue::MaybeCompact() {
  if (dead_ <= live_ + kCompactSlack) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !Live(e); }),
              heap_.end());
  dead_ = 0;
  // Floyd's bottom-up heapify, from the last parent to the root: O(n).
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
      SiftDown(i);
    }
  }
}

Nanos EventQueue::NextTime() const {
  SkipStale();
  URSA_CHECK(!heap_.empty());
  return heap_.front().when;
}

EventFn EventQueue::PopNext(Nanos* when) {
  SkipStale();
  URSA_CHECK(!heap_.empty());
  const Entry top = heap_.front();
  *when = top.when;
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  EventFn fn = std::move(slots_[slot].fn);
  Retire(slot);
  --live_;
  PopHead();
  MaybeCompact();
  return fn;
}

}  // namespace ursa::sim
