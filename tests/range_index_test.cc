// Tests for the §3.3 journal index: range insert/query/erase semantics,
// partial-overlap splitting with j_offset re-basing, two-level compaction,
// tombstone shadowing, composite-key coalescing, and randomized equivalence
// against a naive per-sector reference model.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/index/range_index.h"

namespace ursa::index {
namespace {

// Resolves all mapped segments in [0, kMaxOffset] to a per-sector map.
std::map<uint32_t, uint64_t> Flatten(const RangeIndex& index, uint32_t lo, uint32_t len) {
  std::map<uint32_t, uint64_t> out;
  for (const Segment& seg : index.QueryMapped(lo, len)) {
    for (uint32_t i = 0; i < seg.length; ++i) {
      out[seg.offset + i] = seg.j_offset + i;
    }
  }
  return out;
}

TEST(RangeIndexTest, EmptyQueryIsUnmapped) {
  RangeIndex index;
  auto segs = index.Query(100, 50);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{100, 50, 0, false}));
  EXPECT_TRUE(index.QueryMapped(0, 1000).empty());
}

TEST(RangeIndexTest, SingleInsertExactQuery) {
  RangeIndex index;
  index.Insert(100, 50, 7000);
  auto segs = index.Query(100, 50);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{100, 50, 7000, true}));
}

TEST(RangeIndexTest, QueryCoversGapsAroundMapping) {
  RangeIndex index;
  index.Insert(100, 50, 7000);
  auto segs = index.Query(50, 200);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{50, 50, 0, false}));
  EXPECT_EQ(segs[1], (Segment{100, 50, 7000, true}));
  EXPECT_EQ(segs[2], (Segment{150, 100, 0, false}));
}

TEST(RangeIndexTest, PartialQueryRebasesJOffset) {
  RangeIndex index;
  index.Insert(100, 50, 7000);
  auto segs = index.QueryMapped(120, 10);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{120, 10, 7020, true}));
}

TEST(RangeIndexTest, OverwriteMiddleSplitsOld) {
  RangeIndex index;
  index.Insert(0, 100, 1000);   // old mapping
  index.Insert(40, 20, 5000);   // overwrite the middle
  auto segs = index.QueryMapped(0, 100);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{0, 40, 1000, true}));
  EXPECT_EQ(segs[1], (Segment{40, 20, 5000, true}));
  EXPECT_EQ(segs[2], (Segment{60, 40, 1060, true}));  // re-based past the carve
}

TEST(RangeIndexTest, OverwriteSpanningMultipleEntries) {
  RangeIndex index;
  index.Insert(0, 10, 100);
  index.Insert(10, 10, 200);
  index.Insert(20, 10, 300);
  index.Insert(5, 20, 900);  // covers tail of 1st, all of 2nd, head of 3rd
  auto segs = index.QueryMapped(0, 30);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{0, 5, 100, true}));
  EXPECT_EQ(segs[1], (Segment{5, 20, 900, true}));
  EXPECT_EQ(segs[2], (Segment{25, 5, 305, true}));
}

TEST(RangeIndexTest, EraseRangeRemovesAndSplits) {
  RangeIndex index;
  index.Insert(0, 100, 1000);
  index.EraseRange(30, 40);
  auto segs = index.QueryMapped(0, 100);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 30, 1000, true}));
  EXPECT_EQ(segs[1], (Segment{70, 30, 1070, true}));
}

TEST(RangeIndexTest, EraseIfMapsToOnlyMatching) {
  RangeIndex index;
  index.Insert(0, 10, 1000);
  index.Insert(10, 10, 2000);
  // Replay of the record that mapped [0,10) -> 1000.
  index.EraseIfMapsTo(0, 20, 1000);  // only [0,10) matches the j-base
  auto segs = index.QueryMapped(0, 20);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{10, 10, 2000, true}));
}

TEST(RangeIndexTest, EraseIfMapsToIgnoresRemapped) {
  RangeIndex index;
  index.Insert(0, 10, 1000);
  index.Insert(0, 10, 9000);  // overwritten before replay
  index.EraseIfMapsTo(0, 10, 1000);
  auto segs = index.QueryMapped(0, 10);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].j_offset, 9000u);
}

TEST(RangeIndexTest, CompactPreservesMappings) {
  RangeIndex index;
  index.Insert(0, 10, 100);
  index.Insert(50, 10, 200);
  index.Insert(5, 10, 300);  // overlaps the first
  auto before = Flatten(index, 0, 100);
  index.Compact();
  EXPECT_EQ(index.tree_size(), 0u);
  EXPECT_GT(index.array_size(), 0u);
  EXPECT_EQ(Flatten(index, 0, 100), before);
}

TEST(RangeIndexTest, TreeShadowsArrayAfterCompact) {
  RangeIndex index;
  index.Insert(0, 100, 1000);
  index.Compact();
  index.Insert(20, 10, 5000);  // newer, lives in tree
  auto segs = index.QueryMapped(0, 100);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (Segment{0, 20, 1000, true}));
  EXPECT_EQ(segs[1], (Segment{20, 10, 5000, true}));
  EXPECT_EQ(segs[2], (Segment{30, 70, 1030, true}));
}

TEST(RangeIndexTest, TombstoneShadowsArray) {
  RangeIndex index;
  index.Insert(0, 100, 1000);
  index.Compact();
  index.EraseRange(10, 50);  // tombstone in tree must hide array mapping
  auto segs = index.QueryMapped(0, 100);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 10, 1000, true}));
  EXPECT_EQ(segs[1], (Segment{60, 40, 1060, true}));
  // And compaction applies the tombstone to the array for real.
  index.Compact();
  EXPECT_EQ(index.QueryMapped(0, 100), segs);
}

TEST(RangeIndexTest, CompactCoalescesContiguousKeys) {
  RangeIndex index;
  // Contiguous in both chunk space and journal space: one composite key.
  index.Insert(0, 10, 100);
  index.Insert(10, 10, 110);
  index.Insert(20, 10, 120);
  index.Compact();
  EXPECT_EQ(index.array_size(), 1u);
  auto segs = index.QueryMapped(0, 30);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{0, 30, 100, true}));
}

TEST(RangeIndexTest, CompactDoesNotCoalesceDiscontinuousJOffsets) {
  RangeIndex index;
  index.Insert(0, 10, 100);
  index.Insert(10, 10, 500);  // chunk-contiguous but journal-discontiguous
  index.Compact();
  EXPECT_EQ(index.array_size(), 2u);
}

TEST(RangeIndexTest, AutoCompactAtThreshold) {
  RangeIndex index(/*merge_threshold=*/16);
  for (uint32_t i = 0; i < 64; ++i) {
    index.Insert(i * 100, 10, static_cast<uint64_t>(i) * 1000);
  }
  EXPECT_LT(index.tree_size(), 16u);
  EXPECT_GT(index.array_size(), 0u);
  EXPECT_EQ(index.size(), 64u);
}

TEST(RangeIndexTest, PackedEntryBounds) {
  RangeIndex index;
  index.Insert(kMaxOffset + 1 - kMaxLength, kMaxLength, kMaxJOffset + 1 - kMaxLength);
  index.Compact();
  auto segs = index.QueryMapped(kMaxOffset + 1 - kMaxLength, kMaxLength);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].length, kMaxLength);
  EXPECT_EQ(segs[0].j_offset, kMaxJOffset + 1 - kMaxLength);
}

TEST(RangeIndexTest, MemoryFootprintArrayIsEightBytesPerEntry) {
  RangeIndex index;
  for (uint32_t i = 0; i < 1000; ++i) {
    index.Insert(i * 20, 10, static_cast<uint64_t>(i) * 64);  // non-coalescable
  }
  index.Compact();
  EXPECT_EQ(index.array_size(), 1000u);
  // 8 bytes per mapping, plus small fixed overheads: the fence table
  // ArrayLowerBound uses to narrow its search window and the (empty after
  // Compact) level-0 tree's root node.
  EXPECT_GE(index.MemoryBytes(), 8000u);
  EXPECT_LT(index.MemoryBytes(), 9000u);
}

TEST(RangeIndexTest, ClearResets) {
  RangeIndex index;
  index.Insert(0, 10, 1);
  index.Compact();
  index.Insert(20, 10, 2);
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.QueryMapped(0, 100).empty());
}

// Randomized differential test: RangeIndex vs a naive per-sector map, with
// interleaved inserts, erases, compactions and queries.
class RangeIndexFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeIndexFuzzTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  RangeIndex index(/*merge_threshold=*/64);
  std::map<uint32_t, uint64_t> model;
  constexpr uint32_t kSpace = 4096;

  for (int step = 0; step < 2000; ++step) {
    int op = static_cast<int>(rng.Uniform(10));
    uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 128));
    uint32_t length = static_cast<uint32_t>(rng.UniformRange(1, 128));
    if (op < 6) {
      uint64_t j = rng.Uniform(1 << 20);
      index.Insert(offset, length, j);
      for (uint32_t i = 0; i < length; ++i) {
        model[offset + i] = j + i;
      }
    } else if (op < 8) {
      index.EraseRange(offset, length);
      for (uint32_t i = 0; i < length; ++i) {
        model.erase(offset + i);
      }
    } else if (op == 8) {
      index.Compact();
    } else {
      auto got = Flatten(index, offset, length);
      for (uint32_t i = offset; i < offset + length; ++i) {
        auto mit = model.find(i);
        auto git = got.find(i);
        if (mit == model.end()) {
          EXPECT_EQ(git, got.end()) << "sector " << i << " should be unmapped";
        } else {
          ASSERT_NE(git, got.end()) << "sector " << i << " should be mapped";
          EXPECT_EQ(git->second, mit->second) << "sector " << i;
        }
      }
    }
  }
  // Final full sweep.
  auto got = Flatten(index, 0, kSpace);
  EXPECT_EQ(got, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeIndexFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

std::vector<Segment> ToVector(const SegmentVec& v) {
  return std::vector<Segment>(v.begin(), v.end());
}

TEST(SegmentVecTest, SpillsToHeapAndKeepsCapacity) {
  SegmentVec v;
  for (uint32_t i = 0; i < 100; ++i) {  // well past the inline capacity
    v.push_back(Segment{i * 10, 5, i, true});
  }
  ASSERT_EQ(v.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v[i], (Segment{i * 10, 5, i, true}));
  }
  const Segment* spilled = v.data();
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  v.push_back(Segment{1, 2, 3, true});
  // clear() keeps the heap block: the hot loop never re-allocates.
  EXPECT_EQ(v.data(), spilled);
}

// Differential property test: the allocation-free query-into-buffer API must
// return exactly the segments of the allocating Query()/QueryMapped() across
// randomized insert/erase/compact workloads (same seeds as the fuzz suite).
class QueryToEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryToEquivalenceTest, MatchesAllocatingQuery) {
  Rng rng(GetParam());
  RangeIndex index(/*merge_threshold=*/64);
  constexpr uint32_t kSpace = 4096;
  SegmentVec buf;

  for (int step = 0; step < 2000; ++step) {
    int op = static_cast<int>(rng.Uniform(10));
    uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 128));
    uint32_t length = static_cast<uint32_t>(rng.UniformRange(1, 128));
    if (op < 5) {
      index.Insert(offset, length, rng.Uniform(1 << 20));
    } else if (op < 7) {
      index.EraseRange(offset, length);
    } else if (op == 7) {
      index.Compact();
    }
    // Compare on every step so both fresh-tree and post-compact shapes (and
    // mixes of the two) are exercised.
    index.QueryTo(offset, length, &buf);
    EXPECT_EQ(ToVector(buf), index.Query(offset, length))
        << "step " << step << " offset " << offset << " length " << length;
    index.QueryMappedTo(offset, length, &buf);
    EXPECT_EQ(ToVector(buf), index.QueryMapped(offset, length)) << "step " << step;
  }
  // Whole-space sweep at the end, including a zero-length query.
  index.QueryTo(0, kSpace, &buf);
  EXPECT_EQ(ToVector(buf), index.Query(0, kSpace));
  index.QueryTo(10, 0, &buf);
  EXPECT_TRUE(buf.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryToEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Repeated compactions over a large, sparse key population. Each Compact()
// rebuilds the fence table inside its merge loop; this holds the fenced
// ArrayLowerBound path (QueryTo) to the fence-free reference path (Query)
// after every merge, across arrays big enough to resize the bucket table
// several times (including shrinks when coalescing fuses adjacent keys).
TEST_P(QueryToEquivalenceTest, RepeatedCompactionsKeepFenceConsistent) {
  Rng rng(GetParam() * 7919 + 17);
  RangeIndex index(/*merge_threshold=*/1 << 30);  // manual compaction only
  constexpr uint32_t kSpace = kMaxOffset + 1;
  SegmentVec buf;

  for (int round = 0; round < 8; ++round) {
    // Insert a batch spread over the whole offset space so the fence table
    // has many populated (and many empty) buckets.
    int batch = 200 + static_cast<int>(rng.Uniform(800));
    for (int i = 0; i < batch; ++i) {
      uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 256));
      uint32_t length = static_cast<uint32_t>(rng.UniformRange(1, 256));
      index.Insert(offset, length, rng.Uniform(1 << 20));
    }
    if (rng.Uniform(3) == 0) {
      // Occasionally erase a swath, leaving tombstones for the merge.
      uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 4096));
      index.EraseRange(offset, 4096);
    }
    index.Compact();
    ASSERT_EQ(index.tree_size(), 0u);

    // Random probes against the allocating reference after each merge.
    for (int probe = 0; probe < 200; ++probe) {
      uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 512));
      uint32_t length = static_cast<uint32_t>(rng.UniformRange(1, 512));
      index.QueryTo(offset, length, &buf);
      EXPECT_EQ(ToVector(buf), index.Query(offset, length))
          << "round " << round << " offset " << offset << " length " << length;
      index.QueryMappedTo(offset, length, &buf);
      EXPECT_EQ(ToVector(buf), index.QueryMapped(offset, length))
          << "round " << round << " offset " << offset << " length " << length;
    }
  }

  // Compacting a compacted index (tree empty) must be a no-op for queries.
  size_t before = index.array_size();
  index.Compact();
  EXPECT_EQ(index.array_size(), before);
  for (int probe = 0; probe < 100; ++probe) {
    uint32_t offset = static_cast<uint32_t>(rng.Uniform(kSpace - 512));
    uint32_t length = static_cast<uint32_t>(rng.UniformRange(1, 512));
    index.QueryTo(offset, length, &buf);
    EXPECT_EQ(ToVector(buf), index.Query(offset, length));
  }
}

TEST(RangeIndexTest, CountMappedMatchesQueryMappedUnderRandomOps) {
  // The journal's index-segment gauge counts instead of building segments;
  // the count must equal the segments QueryMapped returns, through inserts,
  // erases, replay-style conditional erases, and compactions.
  Rng rng(404);
  RangeIndex index(/*merge_threshold=*/48);
  std::vector<std::pair<uint32_t, uint64_t>> inserted;  // (offset, j) of past inserts
  uint64_t next_j = 0;
  auto random_offset = [&](uint32_t len) {
    // Mostly a dense low range, sometimes the very top of the chunk space.
    if (rng.Uniform(10) == 0) {
      return kMaxOffset + 1 - len - static_cast<uint32_t>(rng.Uniform(64));
    }
    return static_cast<uint32_t>(rng.Uniform(4096));
  };
  for (int step = 0; step < 6000; ++step) {
    const uint64_t op = rng.Uniform(100);
    const uint32_t len = static_cast<uint32_t>(rng.UniformRange(1, 64));
    const uint32_t off = random_offset(len);
    if (op < 55) {
      index.Insert(off, len, next_j);
      inserted.emplace_back(off, next_j);
      next_j += len;
    } else if (op < 70) {
      index.EraseRange(off, len);
    } else if (op < 92 && !inserted.empty()) {
      const auto& [ioff, ij] = inserted[rng.Uniform(inserted.size())];
      index.EraseIfMapsTo(ioff, len, ij);
    } else if (op < 95) {
      index.Compact();
    }
    ASSERT_EQ(index.CountMapped(0, kMaxOffset), index.QueryMapped(0, kMaxOffset).size())
        << "step " << step;
    ASSERT_EQ(index.CountMapped(0, kMaxOffset + 1), index.QueryMapped(0, kMaxOffset + 1).size())
        << "step " << step;
    const uint32_t qlen = static_cast<uint32_t>(rng.UniformRange(1, 512));
    const uint32_t qoff = random_offset(qlen);
    ASSERT_EQ(index.CountMapped(qoff, qlen), index.QueryMapped(qoff, qlen).size())
        << "step " << step << " query " << qoff << "+" << qlen;
  }
  EXPECT_EQ(index.CountMapped(100, 0), 0u);
}

}  // namespace
}  // namespace ursa::index
