// Tests for journal record encoding, the ring JournalWriter, and JournalLite.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/journal/journal_lite.h"
#include "src/journal/journal_record.h"
#include "src/journal/journal_writer.h"
#include "src/storage/mem_device.h"
#include "test_util.h"

namespace ursa::journal {
namespace {

TEST(RecordTest, EncodeDecodeRoundTrip) {
  RecordHeader h;
  h.chunk_id = 42;
  h.chunk_offset = 8192;
  h.length = 4096;
  h.version = 17;
  uint8_t buf[RecordHeader::kEncodedSize];
  h.crc = h.ComputeCrc(nullptr);
  h.EncodeTo(buf);
  Result<RecordHeader> back = RecordHeader::Decode(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->chunk_id, 42u);
  EXPECT_EQ(back->chunk_offset, 8192u);
  EXPECT_EQ(back->length, 4096u);
  EXPECT_EQ(back->version, 17u);
  EXPECT_EQ(back->crc, h.crc);
}

TEST(RecordTest, BadMagicRejected) {
  uint8_t buf[RecordHeader::kEncodedSize] = {};
  EXPECT_EQ(RecordHeader::Decode(buf).status().code(), StatusCode::kCorruption);
}

TEST(RecordTest, CrcCoversPayload) {
  RecordHeader h;
  h.chunk_id = 1;
  h.length = 512;
  auto payload = test::Pattern(512, 1);
  uint32_t c1 = h.ComputeCrc(payload.data());
  payload[100] ^= 0xFF;
  uint32_t c2 = h.ComputeCrc(payload.data());
  EXPECT_NE(c1, c2);
}

TEST(RecordTest, NullPayloadCrcMatchesZeros) {
  RecordHeader h;
  h.length = 2048;
  std::vector<uint8_t> zeros(2048, 0);
  EXPECT_EQ(h.ComputeCrc(nullptr), h.ComputeCrc(zeros.data()));
}

// KAT: the vectored CRC (streamed over arbitrary segment splits of the
// payload, including null zero-run segments) must equal the contiguous CRC of
// the equivalent flat buffer — the property the scatter append path relies on.
TEST(RecordTest, VectoredCrcMatchesContiguous) {
  RecordHeader h;
  h.chunk_id = 9;
  h.chunk_offset = 4096;
  h.length = 3000;
  h.version = 7;
  auto payload = test::Pattern(3000, 3);
  uint32_t flat = h.ComputeCrc(payload.data());

  // Single segment.
  storage::IoSegment whole{payload.data(), 3000};
  EXPECT_EQ(h.ComputeCrcVectored(&whole, 1), flat);

  // Split at several boundaries, including odd and sector-unaligned ones.
  for (uint64_t split : {1ull, 511ull, 512ull, 513ull, 1499ull, 2999ull}) {
    storage::IoSegment segs[2] = {{payload.data(), split},
                                  {payload.data() + split, 3000 - split}};
    EXPECT_EQ(h.ComputeCrcVectored(segs, 2), flat) << "split " << split;
  }

  // Many tiny segments.
  std::vector<storage::IoSegment> fine;
  for (uint64_t off = 0; off < 3000; off += 97) {
    fine.push_back(storage::IoSegment{payload.data() + off, std::min<uint64_t>(97, 3000 - off)});
  }
  EXPECT_EQ(h.ComputeCrcVectored(fine.data(), fine.size()), flat);

  // Null segments fold as zero runs: data + trailing zeros must match the
  // contiguous CRC of the payload with a real zero tail.
  RecordHeader hz = h;
  hz.length = 3600;
  std::vector<uint8_t> padded(3600, 0);
  std::copy(payload.begin(), payload.end(), padded.begin());
  storage::IoSegment with_zero_tail[2] = {{payload.data(), 3000}, {nullptr, 600}};
  EXPECT_EQ(hz.ComputeCrcVectored(with_zero_tail, 2), hz.ComputeCrc(padded.data()));

  // All-null vector equals the null-payload (all-zeros) contiguous CRC.
  storage::IoSegment all_zero{nullptr, 3600};
  EXPECT_EQ(hz.ComputeCrcVectored(&all_zero, 1), hz.ComputeCrc(nullptr));
}

TEST(RecordTest, FootprintSectorRounded) {
  EXPECT_EQ(RecordFootprint(1), kSector + kSector);
  EXPECT_EQ(RecordFootprint(512), kSector + 512u);
  EXPECT_EQ(RecordFootprint(513), kSector + 1024u);
  EXPECT_EQ(RecordFootprint(4096), kSector + 4096u);
}

TEST(RecordTest, EncodeRecordImage) {
  RecordHeader h;
  h.chunk_id = 5;
  h.chunk_offset = 1024;
  h.length = 1024;
  h.version = 3;
  auto payload = test::Pattern(1024, 2);
  std::vector<uint8_t> image = EncodeRecord(h, payload.data());
  ASSERT_EQ(image.size(), RecordFootprint(1024));
  Result<RecordHeader> back = RecordHeader::Decode(image.data());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->crc, back->ComputeCrc(image.data() + kSector));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), image.begin() + kSector));
}

class JournalWriterTest : public ::testing::Test {
 protected:
  JournalWriterTest()
      : device_(&sim_, 1 * kMiB), writer_(&sim_, &device_, 0, 256 * kKiB, "test") {}

  sim::Simulator sim_;
  storage::MemDevice device_;
  JournalWriter writer_;
};

TEST_F(JournalWriterTest, AppendReturnsSectorAlignedPayloadOffset) {
  Status status;
  Result<uint64_t> j =
      writer_.Append(1, 0, 4096, 1, nullptr, [&](const Status& s) { status = s; });
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(*j % kSector, 0u);
  EXPECT_EQ(*j, kSector);  // first record: header sector then payload
  sim_.RunToCompletion();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(writer_.appended_records(), 1u);
  EXPECT_EQ(writer_.used_bytes(), RecordFootprint(4096));
}

TEST_F(JournalWriterTest, PayloadRoundTrip) {
  auto data = test::Pattern(4096, 3);
  Result<uint64_t> j = writer_.Append(1, 8192, 4096, 1, data.data(), [](const Status&) {});
  ASSERT_TRUE(j.ok());
  sim_.RunToCompletion();
  std::vector<uint8_t> out(4096);
  writer_.ReadPayload(*j, 4096, out.data(), [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim_.RunToCompletion();
  EXPECT_EQ(out, data);
}

TEST_F(JournalWriterTest, FillsAndReportsExhaustion) {
  // 256 KiB ring; each 4 KiB record occupies 4.5 KiB.
  size_t appended = 0;
  while (true) {
    Result<uint64_t> j = writer_.Append(1, 0, 4096, appended, nullptr, [](const Status&) {});
    if (!j.ok()) {
      EXPECT_EQ(j.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++appended;
  }
  EXPECT_EQ(appended, 256 * kKiB / RecordFootprint(4096));
  EXPECT_FALSE(writer_.CanFit(4096));
}

TEST_F(JournalWriterTest, FreeingAllowsReuseAndWraps) {
  // Fill, free everything, fill again: the ring must wrap cleanly.
  for (int round = 0; round < 3; ++round) {
    size_t appended = 0;
    while (writer_.CanFit(4096)) {
      ASSERT_TRUE(writer_.Append(1, 0, 4096, 1, nullptr, [](const Status&) {}).ok());
      ++appended;
    }
    EXPECT_GT(appended, 50u);
    sim_.RunToCompletion();
    while (writer_.HasPending()) {
      writer_.PopFrontAndFree();
    }
    EXPECT_EQ(writer_.used_bytes(), 0u);
  }
}

TEST_F(JournalWriterTest, PendingFifoMetadata) {
  writer_.Append(7, 1024, 512, 3, nullptr, [](const Status&) {});
  writer_.Append(8, 2048, 1024, 4, nullptr, [](const Status&) {});
  ASSERT_EQ(writer_.pending().size(), 2u);
  EXPECT_EQ(writer_.pending()[0].chunk_id, 7u);
  EXPECT_EQ(writer_.pending()[0].version, 3u);
  EXPECT_EQ(writer_.pending()[1].chunk_id, 8u);
  EXPECT_EQ(writer_.pending()[1].length, 1024u);
  writer_.PopFrontAndFree();
  ASSERT_EQ(writer_.pending().size(), 1u);
  EXPECT_EQ(writer_.pending()[0].chunk_id, 8u);
}

TEST_F(JournalWriterTest, WrapNeverSplitsRecord) {
  // Append 1.5 KiB-payload records well past one lap; every payload offset
  // must leave the whole record inside the region.
  for (int i = 0; i < 500; ++i) {
    if (!writer_.CanFit(1536)) {
      sim_.RunToCompletion();
      while (writer_.HasPending()) {
        writer_.PopFrontAndFree();
      }
    }
    Result<uint64_t> j = writer_.Append(1, 0, 1536, 1, nullptr, [](const Status&) {});
    ASSERT_TRUE(j.ok());
    EXPECT_LE(*j + 1536, writer_.region_length());
    EXPECT_GE(*j, kSector);
  }
}

// A crash can tear the newest append mid-payload: the header and the first
// payload sectors hit the platter, the rest never did. Recovery must refuse
// the whole record (its CRC spans the full payload), truncate the torn bytes,
// and leave the ring appendable — NOT replay half a write as if it finished.
TEST_F(JournalWriterTest, ScanTruncatesRecordCutMidPayload) {
  auto a = test::Pattern(4096, 1);
  auto b = test::Pattern(8192, 2);
  auto c = test::Pattern(4096, 3);
  ASSERT_TRUE(writer_.Append(1, 0, a.size(), 1, a.data(), [](const Status&) {}).ok());
  ASSERT_TRUE(writer_.Append(1, 4096, b.size(), 2, b.data(), [](const Status&) {}).ok());
  Result<uint64_t> jc = writer_.Append(1, 16384, c.size(), 3, c.data(), [](const Status&) {});
  ASSERT_TRUE(jc.ok());
  sim_.RunToCompletion();

  // Cut the last record mid-payload: its second half reads back as garbage.
  writer_.CorruptByte(*jc + 2048, 0x5A);
  writer_.CorruptByte(*jc + 3500, 0xFF);
  sim_.RunToCompletion();

  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();

  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0].version, 1u);
  EXPECT_EQ(survivors[1].version, 2u);
  EXPECT_EQ(report.torn_tail_records, 1u);
  EXPECT_GT(report.torn_tail_bytes, 0u);

  // Truncation parks the head at the end of the last valid record, so the
  // torn bytes get overwritten by the next append and scan back clean.
  writer_.RestorePending(survivors);
  auto d = test::Pattern(4096, 4);
  Result<uint64_t> jd = writer_.Append(1, 16384, d.size(), 4, d.data(), [](const Status&) {});
  ASSERT_TRUE(jd.ok());
  EXPECT_EQ(*jd, *jc);  // reuses the truncated slot
  sim_.RunToCompletion();

  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();
  ASSERT_EQ(survivors.size(), 3u);
  EXPECT_EQ(survivors.back().version, 4u);
  EXPECT_EQ(report.torn_tail_records, 0u);
}

// Silent corruption in the MIDDLE of the ring (not the tail) must not hide
// the valid records after it: only the damaged record is dropped.
TEST_F(JournalWriterTest, ScanKeepsValidRecordsPastMidRingCorruption) {
  auto a = test::Pattern(4096, 1);
  auto b = test::Pattern(4096, 2);
  auto c = test::Pattern(4096, 3);
  ASSERT_TRUE(writer_.Append(1, 0, a.size(), 1, a.data(), [](const Status&) {}).ok());
  Result<uint64_t> jb = writer_.Append(1, 4096, b.size(), 2, b.data(), [](const Status&) {});
  ASSERT_TRUE(jb.ok());
  ASSERT_TRUE(writer_.Append(1, 8192, c.size(), 3, c.data(), [](const Status&) {}).ok());
  sim_.RunToCompletion();

  writer_.CorruptByte(*jb + 100, 0x01);  // single flipped bit-pattern mid-ring
  sim_.RunToCompletion();

  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();

  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0].version, 1u);
  EXPECT_EQ(survivors[1].version, 3u);  // the record PAST the damage survives
  EXPECT_GT(report.corrupt_sectors, 0u);
  EXPECT_EQ(report.torn_tail_records, 0u);  // not a tail cut: no truncation
}

// ---- Trimming freed ring space ----

// Once replay has freed everything, the region keeps no page of its own: at
// most the two pages it shares with neighbouring data at its edges.
TEST(JournalTrimTest, DrainedRingKeepsOnlyBoundaryPages) {
  sim::Simulator sim;
  storage::MemDevice device(&sim, 1 * kMiB);
  constexpr uint64_t kRegionOffset = 4 * kKiB + 1024;  // not page aligned
  constexpr uint64_t kRegionLength = 64 * kKiB + 512;
  auto before = test::Pattern(512, 1);
  auto after = test::Pattern(512, 2);
  device.WriteSync(kRegionOffset - before.size(), before.data(), before.size());
  device.WriteSync(kRegionOffset + kRegionLength, after.data(), after.size());
  JournalWriter writer(&sim, &device, kRegionOffset, kRegionLength, "trim");

  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < 120; ++i) {
    uint32_t length = 512 * (1 + i % 11);
    if (!writer.CanFit(length)) {
      sim.RunToCompletion();
      while (writer.HasPending()) {
        writer.PopFrontAndFree();
      }
    }
    payloads.push_back(test::Pattern(length, 100 + i));
    ASSERT_TRUE(
        writer.Append(1, 0, length, i, payloads.back().data(), [](const Status&) {}).ok());
  }
  sim.RunToCompletion();
  EXPECT_GT(device.resident_bytes(), 2 * storage::PageStore::kPageSize);
  while (writer.HasPending()) {
    writer.PopFrontAndFree();
  }
  EXPECT_LE(device.resident_bytes(), 2 * storage::PageStore::kPageSize);
  std::vector<uint8_t> out(512);
  device.ReadSync(kRegionOffset - out.size(), out.data(), out.size());
  EXPECT_EQ(out, before);
  device.ReadSync(kRegionOffset + kRegionLength, out.data(), out.size());
  EXPECT_EQ(out, after);
}

// Head wrapped to just behind the tail, sharing pages with it: trimming the
// freed records loses no live byte. Every pending record reads back exactly,
// and a recovery scan finds exactly the pending records, nothing freed.
TEST_F(JournalWriterTest, NearlyFullRingLosesNoLiveByte) {
  constexpr uint32_t kLength = 3000;  // 7-sector footprint: records straddle pages
  std::map<uint64_t, std::vector<uint8_t>> data;  // version -> payload
  uint64_t version = 0;
  auto append = [&]() {
    ++version;
    data[version] = test::Pattern(kLength, version);
    ASSERT_TRUE(
        writer_.Append(1, 0, kLength, version, data[version].data(), [](const Status&) {}).ok());
  };
  while (writer_.CanFit(kLength)) {
    append();
  }
  sim_.RunToCompletion();
  for (int i = 0; i < 5; ++i) {
    writer_.PopFrontAndFree();
  }
  while (writer_.CanFit(kLength)) {
    append();
  }
  sim_.RunToCompletion();
  ASSERT_LT(writer_.free_bytes(), RecordFootprint(kLength));

  std::set<uint64_t> pending;
  for (const AppendedRecord& rec : writer_.pending()) {
    pending.insert(rec.version);
    std::vector<uint8_t> out(kLength);
    writer_.ReadPayload(rec.j_offset, kLength, out.data(),
                        [](const Status& s) { ASSERT_TRUE(s.ok()); });
    sim_.RunToCompletion();
    EXPECT_EQ(out, data[rec.version]) << "version " << rec.version;
  }

  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();
  std::set<uint64_t> found;
  for (const AppendedRecord& rec : survivors) {
    found.insert(rec.version);
  }
  EXPECT_EQ(found, pending);
  EXPECT_EQ(report.corrupt_sectors, 0u);

  while (writer_.HasPending()) {
    writer_.PopFrontAndFree();
  }
  EXPECT_EQ(device_.resident_bytes(), 0u);
}

// A read submitted before its record is freed, but served after, still gets
// the record's bytes: the read holds trimming at its position.
TEST_F(JournalWriterTest, QueuedReadSurvivesFree) {
  auto data = test::Pattern(4096, 4);
  Result<uint64_t> j = writer_.Append(1, 0, data.size(), 1, data.data(), [](const Status&) {});
  ASSERT_TRUE(j.ok());
  sim_.RunToCompletion();

  device_.SetFault(storage::DeviceFault{0, /*stuck=*/true});
  std::vector<uint8_t> out(data.size(), 0xEE);
  Status status = Internal("not completed");
  writer_.ReadPayload(*j, data.size(), out.data(), [&](const Status& s) { status = s; });
  sim_.RunToCompletion();
  writer_.PopFrontAndFree();
  EXPECT_GT(device_.resident_bytes(), 0u);

  device_.ClearFault();
  sim_.RunToCompletion();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, data);
  EXPECT_GT(device_.resident_bytes(), 0u);  // releasing the hold does not trim
  writer_.Trim();
  EXPECT_EQ(device_.resident_bytes(), 0u);
}

// Freed records appended at or after the ordering horizon stay on media until
// the horizon passes them.
TEST_F(JournalWriterTest, TrimHorizonHoldsNewerFreedRecords) {
  auto first = test::Pattern(8192, 5);
  auto second = test::Pattern(8192, 6);
  ASSERT_TRUE(writer_.Append(1, 0, first.size(), 1, first.data(), [](const Status&) {}).ok());
  sim_.RunUntil(msec(1));
  Nanos horizon = sim_.Now();
  Result<uint64_t> j2 =
      writer_.Append(1, 0, second.size(), 2, second.data(), [](const Status&) {});
  ASSERT_TRUE(j2.ok());
  sim_.RunToCompletion();

  writer_.PopFrontAndFree(horizon);
  writer_.PopFrontAndFree(horizon);
  // The first record is gone; the second, appended at the horizon, stays.
  std::vector<uint8_t> out(second.size());
  device_.ReadSync(*j2, out.data(), out.size());
  EXPECT_EQ(out, second);
  device_.ReadSync(kSector, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));

  writer_.Trim(JournalWriter::kNever);
  EXPECT_EQ(device_.resident_bytes(), 0u);
}

// OldestPinned reports the oldest record that stays on media whatever the
// horizon: the pending front, or a freed record at or past a trim hold.
// Freed records kept only by a horizon do not count.
TEST_F(JournalWriterTest, OldestPinnedCountsPendingAndHeldRecords) {
  std::vector<Nanos> appended;
  std::vector<uint64_t> starts;
  for (uint64_t v = 1; v <= 3; ++v) {
    sim_.RunUntil(msec(v));
    appended.push_back(sim_.Now());
    auto data = test::Pattern(4096, 20 + v);
    Result<uint64_t> j = writer_.Append(1, 0, data.size(), v, data.data(), [](const Status&) {});
    ASSERT_TRUE(j.ok());
    starts.push_back(*j - kSector);
  }
  sim_.RunToCompletion();
  EXPECT_EQ(writer_.OldestPinned(), appended[0]);

  JournalWriter::TrimHold hold = writer_.HoldTrim(starts[1]);
  ASSERT_TRUE(hold.active);
  for (int i = 0; i < 3; ++i) {
    writer_.PopFrontAndFree(/*horizon=*/0);  // the horizon alone keeps all three
  }
  EXPECT_EQ(writer_.OldestPinned(), appended[1]);

  writer_.ReleaseTrim(hold);
  EXPECT_EQ(writer_.OldestPinned(), JournalWriter::kNever);
  writer_.Trim(JournalWriter::kNever);
  EXPECT_EQ(device_.resident_bytes(), 0u);
}

// A wrap pad reuses the space under it like an append: freed records of the
// earlier lap there are discarded when the pad is laid down, even while a
// horizon keeps them, so a scan finds only records the ring still tracks.
TEST_F(JournalWriterTest, WrapPadDiscardsTheLapUnderIt) {
  constexpr uint64_t kRing = 16 * kKiB;
  storage::MemDevice device(&sim_, kRing);
  JournalWriter writer(&sim_, &device, 0, kRing, "small");
  uint64_t version = 0;
  auto append = [&](uint32_t length) {
    ++version;
    auto data = test::Pattern(length, 30 + version);
    Result<uint64_t> j =
        writer.Append(1, 0, length, version, data.data(), [](const Status&) {});
    EXPECT_TRUE(j.ok()) << version;
    sim_.RunToCompletion();
    return j.ok() ? *j - kSector : 0;
  };
  for (int i = 0; i < 3; ++i) {
    append(4096);  // [0, 13824)
  }
  uint64_t under_pad = append(1000);  // [13824, 15360): the next lap pads over it
  ASSERT_EQ(under_pad, 13824u);
  for (int i = 0; i < 4; ++i) {
    writer.PopFrontAndFree(/*horizon=*/0);  // freed, kept by the horizon
  }
  append(4096);  // pads [15360, 16384), lands at 0
  append(4096);
  append(4096);  // head at 13824 of the second lap
  writer.PopFrontAndFree(0);
  append(4096);  // pads [13824, 16384) over the 1000-byte record
  std::vector<uint8_t> out(kRing - under_pad);
  device.ReadSync(under_pad, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));

  std::set<uint64_t> found;
  writer.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport) {
    ASSERT_TRUE(s.ok());
    for (const AppendedRecord& rec : recs) {
      found.insert(rec.version);
    }
  });
  sim_.RunToCompletion();
  EXPECT_EQ(found, (std::set<uint64_t>{6, 7, 8}));  // the second lap's survivors
}

TEST(JournalLiteTest, RecordsAndReportsModifications) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 4096);
  lite.Record(1, 2, 8192, 4096);
  lite.Record(2, 1, 0, 512);  // other chunk
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 0, &ranges));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (Interval{0, 4096}));
  EXPECT_EQ(ranges[1], (Interval{8192, 4096}));
}

TEST(JournalLiteTest, SinceVersionFilters) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 512);
  lite.Record(1, 2, 1024, 512);
  lite.Record(1, 3, 2048, 512);
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 2, &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (Interval{2048, 512}));
}

TEST(JournalLiteTest, MergesOverlappingRanges) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 1024);
  lite.Record(1, 2, 512, 1024);
  lite.Record(1, 3, 4096, 512);
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 0, &ranges));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (Interval{0, 1536}));
  EXPECT_EQ(ranges[1], (Interval{4096, 512}));
}

TEST(JournalLiteTest, GcForcesFullCopy) {
  JournalLite lite(4);
  for (uint64_t v = 1; v <= 20; ++v) {
    lite.Record(1, v, v * 512, 512);
  }
  std::vector<Interval> ranges;
  // History no longer reaches back to version 2: full copy required.
  EXPECT_FALSE(lite.ModifiedSince(1, 2, &ranges));
  // But a recent version is still answerable; the three adjacent 512-byte
  // writes (v18..v20) merge into one contiguous range.
  EXPECT_TRUE(lite.ModifiedSince(1, 17, &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (Interval{18 * 512, 3 * 512}));
}

TEST_F(JournalWriterTest, PendingBytesTracksThePendingQueue) {
  // The backlog gauge reads a running count; it must equal the sum over the
  // pending queue through appends, invalidations, replays (frees), wraps
  // and crash restarts that reinstall the queue from a ring scan.
  Rng rng(77);
  auto sum_pending = [&]() {
    uint64_t total = 0;
    for (const AppendedRecord& rec : writer_.pending()) {
      total += rec.length;
    }
    return total;
  };
  uint64_t version = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.Uniform(100);
    const uint32_t len = static_cast<uint32_t>(rng.UniformRange(1, 16)) * 512;
    if (op < 50 && writer_.CanFit(len)) {
      ASSERT_TRUE(writer_.Append(1, 0, len, ++version, nullptr, [](const Status&) {}).ok());
    } else if (op < 60 && writer_.CanFit(0)) {
      ASSERT_TRUE(writer_.AppendInvalidation(1, 0, len, ++version, [](const Status&) {}).ok());
    } else if (op < 99 && writer_.HasPending()) {
      sim_.RunToCompletion();
      writer_.PopFrontAndFree();
    } else if (op == 99) {
      // Crash restart: reinstall the queue a ring scan recovers.
      sim_.RunToCompletion();
      std::vector<AppendedRecord> survivors;
      writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport) {
        ASSERT_TRUE(s.ok());
        survivors = std::move(recs);
      });
      sim_.RunToCompletion();
      writer_.RestorePending(std::move(survivors));
    }
    ASSERT_EQ(writer_.pending_bytes(), sum_pending()) << "step " << step;
  }
  sim_.RunToCompletion();
  while (writer_.HasPending()) {
    writer_.PopFrontAndFree();
  }
  EXPECT_EQ(writer_.pending_bytes(), 0u);
}

}  // namespace
}  // namespace ursa::journal
