#include "src/journal/journal_writer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::journal {

static_assert(sizeof(AppendedRecord) == 64, "keep replay-queue entries compact");

JournalWriter::JournalWriter(sim::Simulator* sim, storage::BlockDevice* device,
                             uint64_t region_offset, uint64_t region_length, std::string name)
    : sim_(sim),
      device_(device),
      region_offset_(region_offset),
      region_length_(region_length),
      name_(std::move(name)) {
  URSA_CHECK_GT(region_length, 0u);
  URSA_CHECK_EQ(region_length % kSector, 0u);
  URSA_CHECK_LE(region_offset + region_length, device->capacity());
}

bool JournalWriter::CanFit(uint64_t payload_len) const {
  uint64_t footprint = RecordFootprint(payload_len);
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = phys + footprint > region_length_ ? region_length_ - phys : 0;
  return footprint + pad <= free_bytes();
}

Result<uint64_t> JournalWriter::AppendInvalidation(storage::ChunkId chunk_id,
                                                   uint32_t chunk_offset, uint32_t length,
                                                   uint64_t version, storage::IoCallback done,
                                                   storage::IoTag tag) {
  uint64_t footprint = kSector;
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = phys + footprint > region_length_ ? region_length_ - phys : 0;
  if (footprint + pad > free_bytes()) {
    return ResourceExhausted(name_ + " journal full");
  }
  LayPad(phys, pad);
  uint64_t record_logical = logical_head_ + pad;
  uint64_t record_phys = PhysicalPos(record_logical);
  logical_head_ = record_logical + footprint;
  ++appended_records_;

  RecordHeader header;
  header.chunk_id = chunk_id;
  header.chunk_offset = chunk_offset;
  header.length = length;
  header.version = version;
  header.flags = kFlagInvalidation;

  AppendedRecord meta;
  meta.chunk_id = chunk_id;
  meta.chunk_offset = chunk_offset;
  meta.length = length;
  meta.version = version;
  meta.j_offset = record_phys + kSector;
  meta.record_start = record_phys;
  meta.logical_start = record_logical;
  meta.invalidation = true;
  meta.appended_at = sim_->Now();
  pending_.push_back(meta);
  pending_bytes_ += meta.length;

  ursa::Buffer image = ursa::Buffer::AllocateZeroed(kSector);
  header.crc = header.ComputeCrc(nullptr);
  header.EncodeTo(image.data());
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = region_offset_ + record_phys;
  req.length = kSector;
  req.data = image.data();
  req.hold = image.View();  // keeps the image alive until the device is done
  req.tag = tag;
  req.done = std::move(done);
  device_->Submit(std::move(req));
  return meta.j_offset;
}

Result<uint64_t> JournalWriter::Append(storage::ChunkId chunk_id, uint32_t chunk_offset,
                                       uint32_t length, uint64_t version, ursa::BufferView data,
                                       storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_GT(length, 0u);
  uint64_t footprint = RecordFootprint(length);

  // Never let a record straddle the ring wrap: skip the remainder of the
  // region by burning it as pad (the replayer frees it with the record that
  // precedes it, since logical positions stay monotone).
  uint64_t phys = PhysicalPos(logical_head_);
  uint64_t pad = 0;
  if (phys + footprint > region_length_) {
    pad = region_length_ - phys;
  }
  if (footprint + pad > free_bytes()) {
    return ResourceExhausted(name_ + " journal full");
  }
  LayPad(phys, pad);
  uint64_t record_logical = logical_head_ + pad;
  uint64_t record_phys = PhysicalPos(record_logical);
  logical_head_ = record_logical + footprint;
  ++appended_records_;

  RecordHeader header;
  header.chunk_id = chunk_id;
  header.chunk_offset = chunk_offset;
  header.length = length;
  header.version = version;

  AppendedRecord meta;
  meta.chunk_id = chunk_id;
  meta.chunk_offset = chunk_offset;
  meta.length = length;
  meta.version = version;
  meta.j_offset = record_phys + kSector;
  meta.record_start = record_phys;
  meta.logical_start = record_logical;
  meta.has_data = static_cast<bool>(data);
  meta.appended_at = sim_->Now();
  storage::IoRequest req;
  req.type = storage::IoType::kWrite;
  req.offset = region_offset_ + record_phys;
  req.length = footprint;
  req.tag = tag;

  if (data) {
    // Scatter append: the on-device image is assembled by the device from
    // {header sector, caller's payload view, zeroed pad tail}, so the
    // journaled path carries the payload with zero copies end to end. The CRC
    // streams across the same segments (vectored), and the pad segment really
    // writes zeros — ring space is reused, stale bytes must not survive.
    // Byte-identical to the old contiguous EncodeRecordImage layout, which is
    // what recovery Scan re-validates.
    storage::IoSegment payload{data.data(), length};
    header.crc = header.ComputeCrcVectored(&payload, 1);
    meta.crc = header.crc;
    ursa::Buffer hdr = ursa::Buffer::AllocateZeroed(kSector);
    header.EncodeTo(hdr.data());
    req.scatter.reserve(3);
    req.scatter.push_back(storage::IoSegment{hdr.data(), kSector});
    req.scatter.push_back(payload);
    if (footprint > kSector + length) {
      req.scatter.push_back(storage::IoSegment{nullptr, footprint - kSector - length});
    }
    req.hold = std::move(data);  // payload strong ref
    req.hold2 = hdr.View();      // header sector
  }
  pending_.push_back(meta);
  pending_bytes_ += meta.length;
  req.done = std::move(done);
  device_->Submit(std::move(req));
  return meta.j_offset;
}

void JournalWriter::ReadPayload(uint64_t j_offset, uint32_t length, void* out,
                                storage::IoCallback done, storage::IoTag tag) {
  URSA_CHECK_LE(j_offset + length, region_length_);
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = region_offset_ + j_offset;
  req.length = length;
  req.out = out;
  req.tag = tag;
  req.done = std::move(done);
  if (out != nullptr) {
    TrimHold hold = HoldTrim(j_offset);
    if (hold.active) {
      req.done = [this, hold, done = std::move(req.done)](const Status& s) {
        ReleaseTrim(hold);
        done(s);
      };
    }
  }
  device_->Submit(std::move(req));
}

void JournalWriter::Scan(ScanCallback done) {
  // Read the full region, then walk it sector by sector validating headers.
  auto image = std::make_shared<std::vector<uint8_t>>(region_length_);
  storage::IoRequest req;
  req.type = storage::IoType::kRead;
  req.offset = region_offset_;
  req.length = region_length_;
  req.out = image->data();
  req.done = [this, image, done = std::move(done)](const Status& s) {
    if (!s.ok()) {
      done(s, {}, ScanReport{});
      return;
    }
    std::vector<AppendedRecord> records;
    // Sectors whose header decoded (valid magic, plausible footprint) but
    // whose CRC failed: torn appends, bit flips, or stale partial overwrites.
    struct CorruptAt {
      uint64_t pos;
      uint64_t footprint;
      storage::ChunkId chunk;
      uint64_t chunk_offset;
      uint64_t length;
    };
    std::vector<CorruptAt> corrupt;
    ScanReport report;
    uint64_t pos = 0;
    while (pos + kSector <= region_length_) {
      Result<RecordHeader> header = RecordHeader::Decode(image->data() + pos);
      if (!header.ok() || header->length == 0 ||
          header->Footprint() > region_length_ - pos) {
        pos += kSector;
        continue;
      }
      const uint8_t* payload =
          header->invalidation() ? nullptr : image->data() + pos + kSector;
      if (header->crc != header->ComputeCrc(payload)) {
        ++report.corrupt_sectors;
        corrupt.push_back(CorruptAt{pos, header->Footprint(), header->chunk_id,
                                    header->chunk_offset, header->length});
        pos += kSector;  // torn or stale record
        continue;
      }
      AppendedRecord rec;
      rec.chunk_id = header->chunk_id;
      rec.chunk_offset = header->chunk_offset;
      rec.length = header->length;
      rec.version = header->version;
      rec.crc = header->crc;
      rec.j_offset = pos + kSector;
      rec.record_start = pos;
      rec.logical_start = pos;
      rec.has_data = !header->invalidation();
      rec.invalidation = header->invalidation();
      records.push_back(rec);
      pos += header->Footprint();
    }
    // Torn-tail accounting: corrupt records at or past the end of the last
    // valid record are the crash-interrupted tail. RestorePending parks the
    // head at `valid_end`, so these bytes are truncated (overwritten by the
    // next append) rather than replayed.
    uint64_t valid_end = 0;
    for (const AppendedRecord& rec : records) {
      valid_end = std::max(valid_end, rec.record_start + rec.footprint());
    }
    for (const CorruptAt& c : corrupt) {
      if (c.pos >= valid_end) {
        ++report.torn_tail_records;
        report.torn_tail_bytes += std::min(c.footprint, region_length_ - c.pos);
      } else {
        // Settled data damaged in place: the manager must re-quarantine this
        // range on rebuild (a torn tail is just truncated instead).
        report.corrupt_ranges.push_back(
            ScanReport::CorruptRange{c.chunk, c.chunk_offset, c.length, c.pos});
      }
    }
    done(OkStatus(), std::move(records), report);
  };
  device_->Submit(std::move(req));
}

void JournalWriter::CorruptByte(uint64_t region_byte, uint8_t xor_mask) {
  URSA_CHECK_LT(region_byte, region_length_);
  uint64_t sector_start = region_byte - region_byte % kSector;
  auto buf = std::make_shared<std::vector<uint8_t>>(kSector);
  storage::IoRequest read;
  read.type = storage::IoType::kRead;
  read.offset = region_offset_ + sector_start;
  read.length = kSector;
  read.out = buf->data();
  read.done = [this, buf, sector_start, region_byte, xor_mask](const Status& s) {
    if (!s.ok()) {
      return;
    }
    (*buf)[region_byte % kSector] ^= xor_mask;
    storage::IoRequest write;
    write.type = storage::IoType::kWrite;
    write.offset = region_offset_ + sector_start;
    write.length = kSector;
    write.data = buf->data();
    write.done = [buf](const Status&) {};
    device_->Submit(std::move(write));
  };
  device_->Submit(std::move(read));
}

void JournalWriter::RestorePending(std::vector<AppendedRecord> records) {
  pending_.assign(records.begin(), records.end());
  uint64_t head = 0;
  pending_bytes_ = 0;
  for (const AppendedRecord& rec : pending_) {
    head = std::max(head, rec.record_start + rec.footprint());
    pending_bytes_ += rec.length;
  }
  // Conservative restart: treat [0, head) as occupied until replay frees it.
  logical_tail_ = 0;
  logical_head_ = head;
  appended_records_ = pending_.size();
  // Logical positions restart at the physical ones, so trim state restarts
  // too; holds taken before the restart no longer count.
  logical_trimmed_ = 0;
  freed_.clear();
  holds_.clear();
  ++hold_epoch_;
}

void JournalWriter::PopFrontAndFree(Nanos horizon) {
  URSA_CHECK(!pending_.empty());
  const AppendedRecord& front = pending_.front();
  uint64_t new_tail = front.logical_start + front.footprint();
  URSA_CHECK_GE(new_tail, logical_tail_);
  logical_tail_ = new_tail;
  freed_.push_back(FreedRecord{front.logical_start, front.appended_at});
  pending_bytes_ -= front.length;
  pending_.pop_front();
  if (pending_.empty()) {
    // Everything merged: resynchronize the tail with the head so pad bytes
    // burned at the wrap point are reclaimed too.
    logical_tail_ = logical_head_;
  }
  Trim(horizon);
}

void JournalWriter::Trim(Nanos horizon) {
  uint64_t target = logical_tail_;
  if (const uint64_t* hold = FirstLiveHold()) {
    target = std::min(target, *hold);
  }
  // Append times grow in ring order, so the records the horizon holds are a
  // suffix.
  auto held = std::partition_point(
      freed_.begin(), freed_.end(),
      [horizon](const FreedRecord& r) { return r.appended_at < horizon; });
  if (held != freed_.end()) {
    target = std::min(target, held->logical_start);
  }
  // Below the lap floor the ring has appended over the space again: held
  // records there are gone, and those bytes are live.
  uint64_t lap_floor = LapFloor();
  target = std::max(target, lap_floor);
  uint64_t from = std::max(logical_trimmed_, lap_floor);
  if (target > from) {
    DiscardLogical(from, target);
  }
  logical_trimmed_ = std::max(logical_trimmed_, target);
  while (!freed_.empty() && freed_.front().logical_start < logical_trimmed_) {
    freed_.pop_front();
  }
}

Nanos JournalWriter::OldestPinned() const {
  if (const uint64_t* hold = FirstLiveHold()) {
    auto past = std::partition_point(
        freed_.begin(), freed_.end(),
        [hold](const FreedRecord& r) { return r.logical_start < *hold; });
    if (past != freed_.end()) {
      return past->appended_at;
    }
  }
  return pending_.empty() ? kNever : pending_.front().appended_at;
}

const uint64_t* JournalWriter::FirstLiveHold() const {
  auto it = holds_.lower_bound(LapFloor());
  return it == holds_.end() ? nullptr : &*it;
}

void JournalWriter::LayPad(uint64_t phys, uint64_t pad) {
  // A wrap pad reuses its space as an append would, but writes nothing, so
  // the freed records of an earlier lap still under it are discarded here.
  // They count as appended over (see LapFloor) from now on.
  if (pad > 0) {
    device_->Discard(region_offset_ + phys, pad);
  }
}

void JournalWriter::DiscardLogical(uint64_t from, uint64_t to) {
  uint64_t begin = PhysicalPos(from);
  uint64_t length = to - from;
  uint64_t first = std::min(length, region_length_ - begin);
  device_->Discard(region_offset_ + begin, first);
  if (length > first) {
    device_->Discard(region_offset_, length - first);
  }
}

JournalWriter::TrimHold JournalWriter::HoldTrim(uint64_t position) {
  uint64_t from_tail =
      (position + region_length_ - PhysicalPos(logical_tail_)) % region_length_;
  if (from_tail >= used_bytes()) {
    return TrimHold{};
  }
  TrimHold hold{logical_tail_ + from_tail, hold_epoch_, true};
  holds_.insert(hold.logical);
  return hold;
}

void JournalWriter::ReleaseTrim(const TrimHold& hold) {
  if (!hold.active || hold.epoch != hold_epoch_) {
    return;
  }
  holds_.erase(holds_.find(hold.logical));
}

}  // namespace ursa::journal
