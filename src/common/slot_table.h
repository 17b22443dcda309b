// SlotTable: values parked under small integer handles, for continuations a
// component keeps while their events are in flight.
//
// A simulator event whose closure would hold a whole continuation (an EventFn
// is 72 bytes) plus context overflows InlineFn's inline buffer and costs a
// heap cell. Instead the component parks the continuation here and the event
// captures only {this, handle}. Freed handles are reused, so the table stays
// as large as the peak number of values in flight. Destroying the table
// destroys every parked value, releasing their captures.
#ifndef URSA_COMMON_SLOT_TABLE_H_
#define URSA_COMMON_SLOT_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ursa {

template <typename T>
class SlotTable {
 public:
  // Parks `value`; returns its handle.
  uint32_t Put(T value) {
    if (free_.empty()) {
      items_.push_back(std::move(value));
      return static_cast<uint32_t>(items_.size() - 1);
    }
    uint32_t handle = free_.back();
    free_.pop_back();
    items_[handle] = std::move(value);
    return handle;
  }

  // The value parked under a live handle. The reference is invalidated by
  // the next Put.
  T& operator[](uint32_t handle) { return items_[handle]; }

  // Moves the value out and frees its handle. Callers take the value before
  // running it, so a continuation that parks another value cannot
  // invalidate the one that is running.
  T Take(uint32_t handle) {
    T value = std::move(items_[handle]);
    items_[handle] = T();  // release whatever the move left behind
    free_.push_back(handle);
    return value;
  }

 private:
  std::vector<T> items_;
  std::vector<uint32_t> free_;
};

}  // namespace ursa

#endif  // URSA_COMMON_SLOT_TABLE_H_
