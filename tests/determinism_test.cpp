// Determinism regression (ctest label: determinism): the same seeded
// workload, run twice in the same process, must produce bit-identical
// statistics. This is the property every figure in the paper reproduction
// rests on -- if hash-map iteration order, pointer identity, or wall-clock
// time ever leaks into simulated behaviour, the two snapshots diff and this
// test names the first field that moved.
//
// The workload mirrors bench/fig4c_latency: seeded random single-block
// reads/writes through the full streamer stack (PE -> streamer -> PCIe P2P
// -> NVMe), which exercises the splitter, reorder buffer, PRP engines,
// doorbells, NAND timing, and the IOMMU -- the components where
// nondeterminism could realistically hide.
//
// Set SNACC_DOMAINS=N (N > 1) to run the identical workload on domain 0 of
// an N-domain SimCluster with a cross-domain heartbeat ring alongside it:
// the conservative-sync machinery (merges, window planning, mailbox
// timestamps) is then on the executed path, and the snapshot -- printed as
// a single SNAPSHOT line -- must still be byte-identical to the
// single-domain run. CI byte-compares the SNAPSHOT lines across
// SNACC_DOMAINS=1 and SNACC_DOMAINS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "sim/cluster.hpp"
#include "sim/mailbox.hpp"
#include "snacc/pe_client.hpp"

namespace snacc {
namespace {

/// Everything observable about a run, in fixed order. Timestamps are kept
/// as raw picoseconds so the comparison is exact, never within-epsilon.
struct RunSnapshot {
  std::vector<std::uint64_t> write_latencies_ps;
  std::vector<std::uint64_t> read_latencies_ps;
  std::uint64_t final_time_ps = 0;
  std::uint64_t fabric_total_bytes = 0;
  std::uint64_t iommu_faults = 0;
  std::vector<std::pair<std::uint16_t, std::uint64_t>> faults_by_initiator;
  std::uint64_t ssd_commands = 0;
  std::uint64_t ssd_error_cqes = 0;

  std::string describe() const {
    std::ostringstream os;
    os << "final_time=" << final_time_ps
       << " fabric_bytes=" << fabric_total_bytes
       << " iommu_faults=" << iommu_faults << " ssd_cmds=" << ssd_commands
       << " ssd_error_cqes=" << ssd_error_cqes
       << " samples=" << write_latencies_ps.size() << "/"
       << read_latencies_ps.size();
    return os.str();
  }

  bool operator==(const RunSnapshot&) const = default;

  /// FNV-1a over every field, latency vectors included -- one number CI can
  /// compare across SNACC_DOMAINS settings without parsing.
  std::uint64_t digest() const {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
      }
    };
    for (auto v : write_latencies_ps) mix(v);
    for (auto v : read_latencies_ps) mix(v);
    mix(final_time_ps);
    mix(fabric_total_bytes);
    mix(iommu_faults);
    for (const auto& [init, n] : faults_by_initiator) {
      mix(init);
      mix(n);
    }
    mix(ssd_commands);
    mix(ssd_error_cqes);
    return h;
  }
};

std::uint32_t domains_from_env() {
  const char* env = std::getenv("SNACC_DOMAINS");
  if (env == nullptr) return 1;
  const long n = std::strtol(env, nullptr, 10);
  return n > 1 ? static_cast<std::uint32_t>(n) : 1;
}

// Heartbeat token circling the cluster's domains through Mailbox edges, so
// a multi-domain run exercises merges and window planning for real instead
// of letting every domain free-run to the horizon.
sim::Task ring_seed(sim::Mailbox<int>* out, sim::Mailbox<int>* in, int laps) {
  co_await out->push(0);
  for (int i = 0; i < laps; ++i) {
    auto v = co_await in->pop();
    if (!v) break;
    if (i + 1 < laps) co_await out->push(*v + 1);
  }
  out->close();
}

sim::Task ring_forward(sim::Mailbox<int>* in, sim::Mailbox<int>* out) {
  while (auto v = co_await in->pop()) co_await out->push(*v);
  out->close();
}

RunSnapshot run_fig4c_style(std::uint64_t seed) {
  constexpr int kSamples = 40;
  constexpr std::uint64_t kRegionBlocks = 1u << 18;

  const std::uint32_t domains = domains_from_env();
  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<host::System> sys_owner;
  std::vector<std::unique_ptr<sim::Mailbox<int>>> ring;
  if (domains > 1) {
    cluster = std::make_unique<sim::SimCluster>(domains);
    sys_owner = std::make_unique<host::System>(cluster->domain(0));
    for (std::uint32_t i = 0; i < domains; ++i) {
      ring.push_back(std::make_unique<sim::Mailbox<int>>(
          cluster->domain(i), cluster->domain((i + 1) % domains), 4,
          us(50)));
    }
    cluster->domain(0).spawn(
        ring_seed(ring.front().get(), ring.back().get(), /*laps=*/5000));
    for (std::uint32_t i = 1; i < domains; ++i) {
      cluster->domain(i).spawn(
          ring_forward(ring[i - 1].get(), ring[i].get()));
    }
  } else {
    sys_owner = std::make_unique<host::System>();
  }
  host::System& sys = *sys_owner;
  const auto advance = [&](TimePs horizon) {
    if (cluster) {
      cluster->run_until(horizon);
    } else {
      sys.sim().run_until(horizon);
    }
  };

  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = core::Variant::kUram;
  host::SnaccDevice dev(sys, cfg);

  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  advance(seconds(1));
  EXPECT_TRUE(booted);

  core::PeClient pe(dev.streamer());
  RunSnapshot snap;
  bool done = false;
  auto io = [&]() -> sim::Task {
    Xoshiro256 rng(seed);
    for (int i = 0; i < kSamples; ++i) {
      // Seed-dependent size AND address: the size makes latencies diverge
      // across seeds (URAM latency is address-independent), which keeps the
      // double-run check below from passing vacuously.
      const Bytes io{(1 + rng.below(8)) * 4 * KiB};
      const Bytes addr{rng.below(kRegionBlocks) * (4 * KiB) %
                       (1 * MiB)};  // stay inside the URAM window
      TimePs t0 = sys.sim().now();
      co_await pe.write(addr, Payload::phantom(io.value()), io);
      snap.write_latencies_ps.push_back((sys.sim().now() - t0).value());
      t0 = sys.sim().now();
      EXPECT_TRUE((co_await pe.read(addr, io)).ok);
      snap.read_latencies_ps.push_back((sys.sim().now() - t0).value());
      co_await sys.sim().delay(us(300));  // cold, isolated accesses
    }
    done = true;
  };
  sys.sim().spawn(io());
  advance(seconds(30));
  EXPECT_TRUE(done);

  snap.final_time_ps = sys.sim().now().value();
  snap.fabric_total_bytes = sys.fabric().total_bytes();
  snap.iommu_faults = sys.fabric().iommu().faults();
  snap.faults_by_initiator = sys.fabric().iommu().faults_by_initiator();
  snap.ssd_commands = sys.ssd().commands_completed();
  snap.ssd_error_cqes = sys.ssd().error_cqes();
  return snap;
}

TEST(Determinism, SeededDoubleRunIsBitIdentical) {
  const RunSnapshot first = run_fig4c_style(/*seed=*/42);
  const RunSnapshot second = run_fig4c_style(/*seed=*/42);
  ASSERT_EQ(first.write_latencies_ps, second.write_latencies_ps);
  ASSERT_EQ(first.read_latencies_ps, second.read_latencies_ps);
  EXPECT_TRUE(first == second) << "first:  " << first.describe()
                               << "\nsecond: " << second.describe();
  // Stable digest line for CI to byte-compare across SNACC_DOMAINS runs.
  // Everything behind it is simulated state, so it must not vary with the
  // domain count, worker count, or host machine.
  std::printf("SNAPSHOT %s digest=%llu\n", first.describe().c_str(),
              static_cast<unsigned long long>(first.digest()));
}

TEST(Determinism, DifferentSeedsActuallyDiverge) {
  // Guards the test itself: if the workload ignored its seed, the
  // double-run check above would pass vacuously.
  const RunSnapshot a = run_fig4c_style(/*seed=*/42);
  const RunSnapshot b = run_fig4c_style(/*seed=*/43);
  EXPECT_NE(a.write_latencies_ps, b.write_latencies_ps);
}

}  // namespace
}  // namespace snacc
