// Unit and property tests for the streamer's pure components: command
// splitter, buffer ring, reorder buffer, and the two on-the-fly PRP engines
// (verified against the reference in-memory PRP-list layout).
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "nvme/prp.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "snacc/buffer_manager.hpp"
#include "snacc/prp_engine.hpp"
#include "snacc/reorder_buffer.hpp"
#include "snacc/splitter.hpp"
#include "run_at.hpp"

namespace snacc::core {
namespace {

// ---------------------------------------------------------------------------
// Splitter

TEST(Splitter, SmallAlignedReadIsOnePiece) {
  auto subs = split_read(Bytes{4096}, Bytes{4096});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].slba.value(), 1u);
  EXPECT_EQ(subs[0].blocks, 1u);
  EXPECT_EQ(subs[0].trim_head, 0u);
  EXPECT_EQ(subs[0].payload_bytes.value(), 4096u);
  EXPECT_TRUE(subs[0].last);
}

TEST(Splitter, UnalignedReadTrimsHead) {
  auto subs = split_read(Bytes{5000}, Bytes{100});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].slba.value(), 1u);
  EXPECT_EQ(subs[0].trim_head, 5000u % 4096);
  EXPECT_EQ(subs[0].blocks, 1u);  // 5000+100 fits in block 1
  EXPECT_EQ(subs[0].payload_bytes.value(), 100u);
}

TEST(Splitter, ReadCrossingBlockBoundaryCoversBothBlocks) {
  auto subs = split_read(Bytes{4000}, Bytes{200});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].slba.value(), 0u);
  EXPECT_EQ(subs[0].blocks, 2u);
  EXPECT_EQ(subs[0].trim_head, 4000u);
}

TEST(Splitter, LargeReadSplitsAtMdtsBoundaries) {
  // 2.5 MiB starting mid-MB: first piece reaches the 1 MiB boundary,
  // middle pieces are full-size, tail is the remainder.
  const Bytes addr{512 * KiB};
  auto subs = split_read(addr, Bytes{2 * MiB + 512 * KiB});
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].payload_bytes.value(), 512 * KiB);
  EXPECT_EQ(subs[1].payload_bytes.value(), 1 * MiB);
  EXPECT_EQ(subs[2].payload_bytes.value(), 1 * MiB);
  EXPECT_TRUE(subs[2].last);
  EXPECT_FALSE(subs[0].last);
}

class SplitterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitterProperty, PiecesReassembleExactly) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t addr = rng.below(16 * MiB);
    const std::uint64_t len = 1 + rng.below(4 * MiB);
    auto subs = split_read(Bytes{addr}, Bytes{len});
    ASSERT_FALSE(subs.empty());
    std::uint64_t total = 0;
    std::uint64_t cursor = addr;
    for (std::size_t k = 0; k < subs.size(); ++k) {
      const auto& s = subs[k];
      // Device coverage must contain the requested range piece.
      EXPECT_EQ(s.slba.value() * nvme::kLbaSize + s.trim_head, cursor);
      EXPECT_LE(s.trim_head + s.payload_bytes.value(),
                static_cast<std::uint64_t>(s.blocks) * nvme::kLbaSize);
      EXPECT_LE(s.buffer_bytes().value(), 1 * MiB + nvme::kLbaSize);
      EXPECT_EQ(s.last, k + 1 == subs.size());
      total += s.payload_bytes.value();
      cursor += s.payload_bytes.value();
    }
    EXPECT_EQ(total, len);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitterProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// BufferRing

TEST(BufferRing, AllocatesPageAligned) {
  sim::Simulator sim;
  BufferRing ring(sim, Bytes{64 * KiB});
  Bytes off{~0ull};
  auto t = [&]() -> sim::Task {
    off = co_await ring.alloc(Bytes{100});
  };
  sim.spawn(t());
  sim.run();
  EXPECT_EQ(off.value(), 0u);
  EXPECT_EQ(ring.in_use().value(), kPageSize);
}

TEST(BufferRing, BackpressuresWhenFullAndResumesOnFree) {
  sim::Simulator sim;
  BufferRing ring(sim, Bytes{16 * KiB});
  std::vector<std::uint64_t> offs;
  bool fourth_done = false;
  auto t = [&]() -> sim::Task {
    Bytes o;
    for (int i = 0; i < 4; ++i) {
      o = co_await ring.alloc(Bytes{4096});
      offs.push_back(o.value());
    }
    Bytes extra;
    extra = co_await ring.alloc(Bytes{4096});  // blocks until a free
    offs.push_back(extra.value());
    fourth_done = true;
  };
  sim.spawn(t());
  sim.spawn(sim::run_at(&sim, us(5), [&] { ring.free_oldest(); }));
  sim.run();
  ASSERT_TRUE(fourth_done);
  EXPECT_EQ(offs, (std::vector<std::uint64_t>{0, 4096, 8192, 12288, 0}));
}

TEST(BufferRing, WrapSkipsTailRemainder) {
  sim::Simulator sim;
  BufferRing ring(sim, Bytes{24 * KiB});
  Bytes a;
  Bytes b;
  Bytes c;
  auto t = [&]() -> sim::Task {
    a = co_await ring.alloc(Bytes{16 * KiB});  // [0, 16k)
    b = co_await ring.alloc(Bytes{4 * KiB});   // [16k, 20k)
    ring.free_oldest();                        // head -> 16k
    // 8 KiB does not fit in [20k, 24k); must wrap to 0.
    c = co_await ring.alloc(Bytes{8 * KiB});
  };
  sim.spawn(t());
  sim.run();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 16 * KiB);
  EXPECT_EQ(c.value(), 0u);
}

TEST(BufferRing, StressRandomAllocFreeKeepsInvariants) {
  sim::Simulator sim;
  BufferRing ring(sim, Bytes{4 * MiB});
  Xoshiro256 rng(99);
  bool done = false;
  auto producer = [&]() -> sim::Task {
    for (int i = 0; i < 2000; ++i) {
      Bytes off;
      const Bytes len{kPageSize * (1 + rng.below(64))};
      off = co_await ring.alloc(len);
      EXPECT_EQ(off.value() % kPageSize, 0u);
      EXPECT_LE(ring.in_use(), ring.capacity());
    }
    done = true;
  };
  auto consumer = [&]() -> sim::Task {
    while (!done || ring.outstanding() > 0) {
      if (ring.outstanding() > 0) {
        ring.free_oldest();
      }
      co_await sim.delay(ns(50));
    }
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(ring.outstanding(), 0u);
  EXPECT_EQ(ring.in_use().value(), 0u);
}

// ---------------------------------------------------------------------------
// ReorderBuffer

TEST(ReorderBuffer, OutOfOrderCompletionInOrderRetirement) {
  sim::Simulator sim;
  ReorderBuffer rob(sim, 4);
  std::vector<SlotIdx> slots(3);
  std::vector<std::uint64_t> retired;
  auto setup = [&]() -> sim::Task {
    for (std::uint16_t i = 0; i < 3; ++i) {
      RobEntry e;
      e.user_tag = 100 + i;
      slots[i] = co_await rob.alloc(std::move(e));
    }
  };
  auto retirer = [&]() -> sim::Task {
    for (int i = 0; i < 3; ++i) {
      co_await rob.wait_head();
      retired.push_back(rob.retire().user_tag);
    }
  };
  sim.spawn(setup());
  sim.spawn(retirer());
  // Complete out of order: 2, 0, 1.
  sim.spawn(sim::run_at(&sim, us(1), [&] {
    rob.complete(slots[2], nvme::Status::kSuccess);
  }));
  sim.spawn(sim::run_at(&sim, us(2), [&] {
    rob.complete(slots[0], nvme::Status::kSuccess);
  }));
  sim.spawn(sim::run_at(&sim, us(3), [&] {
    rob.complete(slots[1], nvme::Status::kSuccess);
  }));
  sim.run();
  EXPECT_EQ(retired, (std::vector<std::uint64_t>{100, 101, 102}));
}

TEST(ReorderBuffer, AllocBlocksAtCapacity) {
  sim::Simulator sim;
  ReorderBuffer rob(sim, 2);
  int allocated = 0;
  auto t = [&]() -> sim::Task {
    SlotIdx s;
    for (int i = 0; i < 3; ++i) {
      s = co_await rob.alloc(RobEntry{});
      ++allocated;
    }
  };
  sim.spawn(t());
  sim.run_until(us(1));
  EXPECT_EQ(allocated, 2);
  rob.complete(SlotIdx{0}, nvme::Status::kSuccess);
  sim.run_until(us(2));
  EXPECT_EQ(allocated, 2);  // completion alone is not enough...
  auto drain = [&]() -> sim::Task {
    co_await rob.wait_head();
    rob.retire();  // ...retirement frees the slot
  };
  sim.spawn(drain());
  sim.run();
  EXPECT_EQ(allocated, 3);
}

TEST(ReorderBuffer, PeekSeesWindowInOrder) {
  sim::Simulator sim;
  ReorderBuffer rob(sim, 8);
  auto t = [&]() -> sim::Task {
    SlotIdx s;
    for (std::uint64_t i = 0; i < 5; ++i) {
      RobEntry e;
      e.user_tag = i;
      s = co_await rob.alloc(std::move(e));
    }
  };
  sim.spawn(t());
  sim.run();
  for (std::uint16_t i = 0; i < 5; ++i) {
    ASSERT_NE(rob.peek(i), nullptr);
    EXPECT_EQ(rob.peek(i)->user_tag, i);
  }
  EXPECT_EQ(rob.peek(5), nullptr);
}

// Retiring an incomplete head would hand the PE a buffer the SSD never
// filled, so retire() aborts in every build, naming the head slot.
TEST(ReorderBufferDeathTest, RetireBeforeHeadCompletionFailsFast) {
  // Two commands in flight; `prepare` runs on the ROB before the retire.
  const auto retire_after = [](auto prepare) {
    sim::Simulator sim;
    ReorderBuffer rob(sim, 4);
    auto submit = [&]() -> sim::Task {
      (void)co_await rob.alloc(RobEntry{});
      (void)co_await rob.alloc(RobEntry{});
    };
    sim.spawn(submit());
    sim.run();
    prepare(rob);
    rob.retire();
  };
  const char* kAbort = "ROB retire of head slot 0 before its completion";
  // No completion at all.
  EXPECT_DEATH(retire_after([](ReorderBuffer&) {}), kAbort);
  // Only the later slot has completed.
  EXPECT_DEATH(retire_after([](ReorderBuffer& rob) {
                 rob.complete(SlotIdx{1}, nvme::Status::kSuccess);
               }),
               kAbort);
  // The head completed, then was reopened for a retry.
  EXPECT_DEATH(retire_after([](ReorderBuffer& rob) {
                 rob.complete(SlotIdx{0}, nvme::Status::kSuccess);
                 rob.reopen_head();
               }),
               kAbort);
}

// ---------------------------------------------------------------------------
// PRP engines vs. the reference list layout

std::uint64_t entry_from(const Payload& p, std::uint64_t index) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.view().data() + index * 8, 8);
  return v;
}

TEST(UramPrpEngine, SmallCommandsUseDirectEntries) {
  UramPrpEngine eng(pcie::Addr{8 * MiB}, Bytes{4 * MiB});
  auto one = eng.make(Bytes{64 * KiB}, Bytes{4096});
  EXPECT_EQ(one.prp1.value(), 8 * MiB + 64 * KiB);
  EXPECT_EQ(one.prp2.value(), 0u);
  auto two = eng.make(Bytes{64 * KiB}, Bytes{8192});
  EXPECT_EQ(two.prp2.value(), 8 * MiB + 64 * KiB + 4096);
}

TEST(UramPrpEngine, ListEntriesMatchReferenceLayout) {
  const pcie::Addr window{8 * MiB};
  UramPrpEngine eng(window, Bytes{4 * MiB});
  const Bytes off{256 * KiB};
  const Bytes len{1 * MiB};
  auto prps = eng.make(off, len);
  EXPECT_EQ(prps.prp1, window + off);
  // Bit 22 selects the PRP half.
  EXPECT_NE(prps.prp2.value() & (4 * MiB), 0u);

  // Reference: the naive in-memory list for the same contiguous buffer.
  auto ref = nvme::build_prp_lists(window + off, len, pcie::Addr{});
  ASSERT_EQ(ref.size(), 1u);
  const Bytes local = prps.prp2 - window;
  Payload served = eng.serve(local, Bytes{ref[0].size() * 8});
  for (std::size_t n = 0; n < ref[0].size(); ++n) {
    EXPECT_EQ(entry_from(served, n), ref[0][n]) << "entry " << n;
  }
}

class UramPrpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UramPrpProperty, ServedEntriesEqualReferenceForRandomCommands) {
  const pcie::Addr window{16 * MiB};  // naturally aligned for 4 MiB buffer
  UramPrpEngine eng(window, Bytes{4 * MiB});
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t pages = 3 + rng.below(254);  // needs a list
    const Bytes len{pages * kPageSize};
    const Bytes off{rng.below((4 * MiB - len.value()) / kPageSize + 1) *
                    kPageSize};
    auto prps = eng.make(off, len);
    auto ref = nvme::build_prp_lists(window + off, len, pcie::Addr{});
    ASSERT_EQ(ref.size(), 1u);
    Payload served =
        eng.serve(prps.prp2 - window, Bytes{ref[0].size() * 8});
    for (std::size_t n = 0; n < ref[0].size(); ++n) {
      ASSERT_EQ(entry_from(served, n), ref[0][n]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UramPrpProperty, ::testing::Values(11, 22, 33, 44));

TEST(RegfilePrpEngine, TranslatesThroughChunkTable) {
  // Two 4 MiB chunks at scattered global addresses.
  std::vector<pcie::Addr> chunks{pcie::Addr{0x1000'0000},
                                 pcie::Addr{0x5000'0000}};
  ChunkedTranslator xlat(chunks, Bytes{4 * MiB});
  RegfilePrpEngine eng(pcie::Addr{0x9000'0000}, xlat, 64);

  // A 1 MiB command whose pages straddle the chunk boundary.
  const Bytes off{4 * MiB - 512 * KiB};
  auto prps = eng.make(SlotIdx{7}, off, Bytes{1 * MiB});
  EXPECT_EQ(prps.prp1.value(), 0x1000'0000 + 4 * MiB - 512 * KiB);
  EXPECT_EQ(prps.prp2.value(), 0x9000'0000 + 7ull * kPageSize);

  Payload served = eng.serve(Bytes{7ull * kPageSize}, Bytes{255 * 8});
  // Entry n = page n+1 of the buffer, chunk-translated.
  for (std::uint64_t n = 0; n < 255; ++n) {
    const Bytes logical = off + Bytes{(n + 1) * kPageSize};
    EXPECT_EQ(entry_from(served, n), xlat.translate(logical).value()) << n;
  }
}

class RegfilePrpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegfilePrpProperty, MatchesReferenceOnLinearWindow) {
  LinearTranslator xlat(pcie::Addr{0x2000'0000});
  RegfilePrpEngine eng(pcie::Addr{0x7000'0000}, xlat, 64);
  Xoshiro256 rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const SlotIdx slot{static_cast<std::uint16_t>(rng.below(64))};
    const std::uint64_t pages = 3 + rng.below(254);
    const Bytes len{pages * kPageSize};
    const Bytes off{rng.below(16 * MiB / kPageSize) * kPageSize};
    auto prps = eng.make(slot, off, len);
    auto ref = nvme::build_prp_lists(pcie::Addr{0x2000'0000} + off, len,
                                     pcie::Addr{});
    ASSERT_EQ(ref.size(), 1u);
    Payload served = eng.serve(prps.prp2 - pcie::Addr{0x7000'0000},
                               Bytes{ref[0].size() * 8});
    for (std::size_t n = 0; n < ref[0].size(); ++n) {
      ASSERT_EQ(entry_from(served, n), ref[0][n]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegfilePrpProperty,
                         ::testing::Values(5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Reference PRP list builder itself (chaining)

TEST(BuildPrpLists, ChainsAcrossListPages) {
  // 600 pages: 1 direct + 599 list entries -> 511 + chain + 88.
  const Bytes len{600 * kPageSize};
  auto lists = nvme::build_prp_lists(pcie::Addr{0x1000'0000}, len,
                                     pcie::Addr{0x9000'0000});
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists[0].size(), nvme::kPrpEntriesPerList);
  EXPECT_EQ(lists[0].back(), 0x9000'0000ull + kPageSize);  // chain pointer
  EXPECT_EQ(lists[1].size(), 599u - 511u);
  EXPECT_EQ(lists[0][0], 0x1000'0000ull + kPageSize);
  EXPECT_EQ(lists[1][0], 0x1000'0000ull + 512 * kPageSize);
}

TEST(BuildPrpLists, ExactlyFullListDoesNotChain) {
  const Bytes len{513 * kPageSize};  // 1 direct + 512 entries
  auto lists = nvme::build_prp_lists(pcie::Addr{0x1000'0000}, len,
                                     pcie::Addr{0x9000'0000});
  ASSERT_EQ(lists.size(), 1u);
  EXPECT_EQ(lists[0].size(), nvme::kPrpEntriesPerList);
  EXPECT_EQ(lists[0].back(), 0x1000'0000ull + 512 * kPageSize);
}

}  // namespace
}  // namespace snacc::core
