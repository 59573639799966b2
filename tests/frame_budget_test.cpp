// Memory budget of a DMA page queued at a PCIe link. The SSD fetches each
// 4 kB page of a write with its own spawned task, whose frame and the PCIe
// read frame it awaits wait in a link's FIFO until the link serves them, so
// coroutine frames are what a write in flight costs the host. 32 x 1 MB
// host-DRAM writes through the SPDK driver queue about 6,500 pages at their
// peak; a probe task samples the heap every simulated microsecond, and the
// growth at the peak, divided by the pages still queued then, must stay
// within the budget. `ctest -L perf` runs it with the other host-cost guards.
//
// The budget covers pages queued at a PCIe link only. A page still waiting
// for the host-DRAM bus also holds `HostMemory::mem_read`'s frame (224 B),
// 832 B by the count below; measured this test's way with the bus slowed to
// 3 GB/s, so that pages queue there, it came to 957 B per page. The writes
// are paced so that at the peak only the newest command's pages (250 of
// about 6,500) wait at the bus.
//
// Calibrated with GCC 12.2 and glibc 2.36 at -O2, where it measures 655 B.
// Frame layout is the compiler's and chunk rounding is malloc's, so on
// another toolchain re-measure the frame sizes (docs/MODEL.md, "Coroutine
// frames") before moving the budget. Sanitizers replace the allocator and
// debug builds grow every frame, so those builds skip the test.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>

#include "host/system.hpp"
#include "spdk/driver.hpp"

namespace snacc {
namespace {

/// Bytes a page queued at a PCIe link may hold: its page-fetch frame, the
/// PCIe read frame, their malloc headers and its spawn record (176 + 352 +
/// 64 = 592 B of chunks with GCC 12 at -O2).
constexpr double kBytesPerQueuedPage = 700;

std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(FrameBudget, QueuedWritePageStaysWithinBudget) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
  GTEST_SKIP() << "frame sizes are measured in optimized, uninstrumented "
                  "builds only";
#endif
  host::System sys;
  spdk::Driver driver(sys.sim(), sys.fabric(), sys.host_mem(),
                      host::addr_map::kHostDramBase, sys.ssd(),
                      sys.config().profile.host);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await driver.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(sys.sim().now() + seconds(1));
  ASSERT_TRUE(booted);

  constexpr std::uint64_t kCommands = 32;
  constexpr std::uint64_t kPages = kCommands * MiB / kPageSize;
  const auto page_reads = [&] {
    return sys.fabric().path(sys.ssd().port(), sys.root_port()).reads;
  };
  const std::uint64_t reads_before = page_reads();
  const std::size_t heap_before = heap_in_use();

  // One 1 MB write every 30 us: the host-DRAM bus serves a command's pages
  // in about 27 us, so they queue at the slower PCIe link, where a page
  // holds its page-fetch frame and the PCIe read frame. Issued all at once,
  // about half the pages (4,081 of 7,439 at the peak) would still wait for
  // the DRAM bus, which the budget does not cover (see the top of this file).
  int finished = 0;
  auto write = [&](std::uint64_t i) -> sim::Task {
    co_await sys.sim().delay(us(30) * i);
    const nvme::Status st = co_await driver.write(
        Lba{i * (MiB / nvme::kLbaSize)}, Payload::phantom(1 * MiB));
    EXPECT_EQ(st, nvme::Status::kSuccess);
    ++finished;
  };
  // Each sample compares heap growth with the pages not yet fetched. The few
  // PRP-list and SQE reads count as fetched pages, which errs towards fewer
  // queued pages and more bytes per page.
  std::size_t peak_growth = 0;
  std::uint64_t fetched_at_peak = 0;
  auto probe = [&]() -> sim::Task {
    while (finished < static_cast<int>(kCommands)) {
      co_await sys.sim().delay(us(1));
      const std::size_t heap = heap_in_use();
      if (heap > heap_before + peak_growth) {
        peak_growth = heap - heap_before;
        fetched_at_peak = std::min(page_reads() - reads_before, kPages);
      }
    }
  };
  for (std::uint64_t i = 0; i < kCommands; ++i) sys.sim().spawn(write(i));
  sys.sim().spawn(probe());
  sys.sim().run_until(sys.sim().now() + seconds(1));
  ASSERT_EQ(finished, static_cast<int>(kCommands));
  const std::uint64_t queued = kPages - fetched_at_peak;
  // The measurement means something only if most pages were queued at once.
  ASSERT_GT(queued, kPages / 2);

  // The growth also holds what the fetched blocks keep (the write cache's
  // undo log, the media's page map), which errs towards more bytes per page.
  const double per_page =
      static_cast<double>(peak_growth) / static_cast<double>(queued);
  std::printf("heap growth at peak %zu B with %llu pages queued: %.0f B per "
              "queued page\n",
              peak_growth, static_cast<unsigned long long>(queued), per_page);
  EXPECT_LE(per_page, kBytesPerQueuedPage);
}

}  // namespace
}  // namespace snacc
