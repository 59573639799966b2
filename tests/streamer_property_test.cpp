// Property tests of the full streamer stack: randomized interleaved
// reads/writes with end-to-end integrity against a reference model, across
// all buffer variants and both retirement engines; plus invariants on the
// analytic resource model.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "snacc/resource_model.hpp"

namespace snacc {
namespace {

using core::Variant;

struct Config {
  Variant variant;
  bool out_of_order;
  std::uint64_t seed;
};

class MixedWorkload : public ::testing::TestWithParam<Config> {};

/// Reference model: a flat byte image of what the device must contain.
class Reference {
 public:
  explicit Reference(std::uint64_t region)
      : data_(region, 0), written_(region, false) {}

  void write(std::uint64_t addr, const Payload& p) {
    auto v = p.view();
    for (std::uint64_t i = 0; i < v.size(); ++i) {
      data_[addr + i] = static_cast<std::uint8_t>(v[i]);
      written_[addr + i] = true;
    }
  }
  bool check(std::uint64_t addr, const Payload& got, std::string* err) const {
    if (!got.has_data()) {
      *err = "phantom read of real data";
      return false;
    }
    auto v = got.view();
    for (std::uint64_t i = 0; i < v.size(); ++i) {
      if (static_cast<std::uint8_t>(v[i]) != data_[addr + i]) {
        *err = "mismatch at device byte " + std::to_string(addr + i);
        return false;
      }
    }
    return true;
  }
  bool covered(std::uint64_t addr, std::uint64_t len) const {
    // Only check fully-written ranges (unwritten media reads back phantom).
    for (std::uint64_t i = 0; i < len; ++i) {
      if (!written_[addr + i]) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint8_t> data_;
  std::vector<bool> written_;
};

TEST_P(MixedWorkload, RandomizedInterleavedIoMatchesReference) {
  const Config cfg = GetParam();
  host::System sys;
  sys.ssd().nand().force_mode(true);
  host::SnaccDeviceConfig dcfg;
  dcfg.streamer.variant = cfg.variant;
  dcfg.streamer.out_of_order = cfg.out_of_order;
  host::SnaccDevice dev(sys, dcfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  ASSERT_TRUE(booted);

  core::PeClient pe(dev.streamer());
  Reference ref(64 * MiB);
  Xoshiro256 rng(cfg.seed);
  bool done = false;
  int checks = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  auto workload = [&]() -> sim::Task {
    const std::uint64_t region = 64 * MiB;
    for (int op = 0; op < 60; ++op) {
      if (extents.empty() || rng.chance(0.6)) {
        // Block-aligned write of 4 KiB .. ~1.5 MiB with random fill.
        const std::uint64_t len = kPageSize * (1 + rng.below(384));
        const std::uint64_t addr =
            (rng.below((region - len) / kPageSize)) * kPageSize;
        std::vector<std::byte> data(len);
        const std::uint8_t tag = static_cast<std::uint8_t>(rng.next());
        for (std::uint64_t i = 0; i < len; i += 512) {
          data[i] = static_cast<std::byte>(tag ^ (i >> 9));
        }
        Payload p = Payload::bytes(std::move(data));
        ref.write(addr, p);
        extents.emplace_back(addr, len);
        co_await pe.write(Bytes{addr}, std::move(p));
      } else {
        // Read a random (possibly unaligned) subrange of a past write.
        const auto [w_addr, w_len] = extents[rng.below(extents.size())];
        const std::uint64_t off = rng.below(w_len);
        const std::uint64_t len = 1 + rng.below(w_len - off);
        const std::uint64_t addr = w_addr + off;
        if (!ref.covered(addr, len)) continue;  // later write may overlap
        Payload got;
        got = (co_await pe.read(Bytes{addr}, Bytes{len})).data;
        std::string err;
        EXPECT_TRUE(ref.check(addr, got, &err)) << err << " (op " << op << ")";
        ++checks;
      }
    }
    done = true;
  };
  sys.sim().spawn(workload());
  sys.sim().run_until(sys.sim().now() + seconds(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(dev.streamer().errors(), 0u);
  // At least a few reads must have validated data (seed-dependent).
  EXPECT_GT(checks, 10);
}

// Same randomized workload under NAND read faults, with the watchdog on: a
// low probabilistic fault rate plus one scheduled hit (so every seed sees at
// least one fault) must not cost any data integrity, and the streamer's
// counters must account for every error -- no lost commands, no hangs.
class FaultedWorkload : public ::testing::TestWithParam<Config> {};

TEST_P(FaultedWorkload, RecoveryPreservesIntegrityAndAccountsForFaults) {
  const Config cfg = GetParam();
  host::System sys;
  sys.ssd().nand().force_mode(true);
  fault::FaultPlan plan = fault::FaultPlan::rate(2e-3, cfg.seed);
  plan.schedule = {10};  // guarantee at least one mid-stream fault
  sys.ssd().nand().set_read_fault_plan(plan);
  host::SnaccDeviceConfig dcfg;
  dcfg.streamer.variant = cfg.variant;
  dcfg.streamer.out_of_order = cfg.out_of_order;
  dcfg.streamer.cmd_timeout = ms(5);
  dcfg.streamer.max_retries = 6;
  dcfg.streamer.retry_backoff = us(2);
  host::SnaccDevice dev(sys, dcfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  ASSERT_TRUE(booted);

  core::PeClient pe(dev.streamer());
  Reference ref(64 * MiB);
  Xoshiro256 rng(cfg.seed);
  bool done = false;
  int checks = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  auto workload = [&]() -> sim::Task {
    const std::uint64_t region = 64 * MiB;
    for (int op = 0; op < 60; ++op) {
      if (extents.empty() || rng.chance(0.6)) {
        const std::uint64_t len = kPageSize * (1 + rng.below(384));
        const std::uint64_t addr =
            (rng.below((region - len) / kPageSize)) * kPageSize;
        std::vector<std::byte> data(len);
        const std::uint8_t tag = static_cast<std::uint8_t>(rng.next());
        for (std::uint64_t i = 0; i < len; i += 512) {
          data[i] = static_cast<std::byte>(tag ^ (i >> 9));
        }
        Payload p = Payload::bytes(std::move(data));
        ref.write(addr, p);
        extents.emplace_back(addr, len);
        const bool ok =
            co_await pe.write(Bytes{addr}, std::move(p), Bytes{16 * KiB});
        EXPECT_TRUE(ok) << "write quarantined (op " << op << ")";
      } else {
        const auto [w_addr, w_len] = extents[rng.below(extents.size())];
        const std::uint64_t off = rng.below(w_len);
        const std::uint64_t len = 1 + rng.below(w_len - off);
        const std::uint64_t addr = w_addr + off;
        if (!ref.covered(addr, len)) continue;
        const ReadResult got = co_await pe.read(Bytes{addr}, Bytes{len});
        EXPECT_TRUE(got.ok) << "read quarantined (op " << op << ")";
        std::string err_msg;
        EXPECT_TRUE(ref.check(addr, got.data, &err_msg))
            << err_msg << " (op " << op << ")";
        ++checks;
      }
    }
    done = true;
  };
  sys.sim().spawn(workload());
  sys.sim().run_until(sys.sim().now() + seconds(60));
  ASSERT_TRUE(done);
  EXPECT_GT(checks, 10);

  const auto& s = dev.streamer();
  // The scheduled fault guarantees at least one recovery happened.
  EXPECT_GE(s.retries(), 1u);
  EXPECT_GE(s.recovered(), 1u);
  EXPECT_EQ(s.quarantined(), 0u) << "retry budget must absorb all faults";
  // Every error CQE was either retried or quarantined -- nothing leaked.
  EXPECT_EQ(s.errors(), s.retries() + s.quarantined());
  // Every submission (first attempt or retry) was retired exactly once.
  EXPECT_EQ(s.commands_submitted(), s.commands_retired() + s.retries());
  // The injected NAND faults explain the device-side error CQEs. A command
  // spanning several pages can fault on more than one of them but posts a
  // single error CQE, so the injected count bounds the CQE count from above.
  EXPECT_GE(sys.ssd().nand().read_faults_injected(), sys.ssd().read_errors());
  EXPECT_GE(sys.ssd().read_errors(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultSweep, FaultedWorkload,
    ::testing::Values(Config{Variant::kUram, false, 11},
                      Config{Variant::kUram, true, 12},
                      Config{Variant::kHostDram, false, 13},
                      Config{Variant::kHbm, true, 14}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = core::variant_name(info.param.variant);
      for (auto& c : name) {
        if (c == ' ' || c == '-') c = '_';
      }
      return name + (info.param.out_of_order ? "_ooo" : "_inorder") + "_s" +
             std::to_string(info.param.seed);
    });

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string name = core::variant_name(info.param.variant);
  for (auto& c : name) {
    if (c == ' ' || c == '-') c = '_';
  }
  return name + (info.param.out_of_order ? "_ooo" : "_inorder") + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MixedWorkload,
    ::testing::Values(Config{Variant::kUram, false, 1},
                      Config{Variant::kUram, true, 2},
                      Config{Variant::kOnboardDram, false, 3},
                      Config{Variant::kOnboardDram, true, 4},
                      Config{Variant::kHostDram, false, 5},
                      Config{Variant::kHostDram, true, 6},
                      Config{Variant::kHbm, false, 7},
                      Config{Variant::kHbm, true, 8}),
    config_name);

// ---------------------------------------------------------------------------
// Resource model invariants (Table 1)

TEST(ResourceModel, MatchesPaperTable1) {
  using core::ResourceUsage;
  core::StreamerConfig cfg;
  cfg.variant = Variant::kUram;
  ResourceUsage u = core::estimate_resources(cfg);
  EXPECT_EQ(u.lut, 7260u);
  EXPECT_EQ(u.ff, 8388u);
  EXPECT_EQ(u.bram_36k, 0.0);
  EXPECT_EQ(u.uram_bytes, 4 * MiB);
  EXPECT_NEAR(u.uram_pct(), 13.3, 0.1);

  cfg.variant = Variant::kOnboardDram;
  u = core::estimate_resources(cfg);
  EXPECT_EQ(u.lut, 14063u);
  EXPECT_EQ(u.ff, 16487u);
  EXPECT_EQ(u.bram_36k, 24.0);
  EXPECT_EQ(u.dram_bytes, 128 * MiB);
  EXPECT_FALSE(u.dram_is_host_pinned);

  cfg.variant = Variant::kHostDram;
  u = core::estimate_resources(cfg);
  EXPECT_EQ(u.lut, 12228u);
  EXPECT_EQ(u.ff, 13373u);
  EXPECT_EQ(u.bram_36k, 17.5);
  EXPECT_TRUE(u.dram_is_host_pinned);
}

TEST(ResourceModel, StructuralOrderings) {
  core::StreamerConfig cfg;
  std::map<Variant, core::ResourceUsage> u;
  for (Variant v : {Variant::kUram, Variant::kOnboardDram, Variant::kHostDram,
                    Variant::kHbm}) {
    cfg.variant = v;
    u[v] = core::estimate_resources(cfg);
  }
  // The URAM variant is cheapest in fabric logic (Sec. 5.4); the DRAM
  // variants cost 2-3x; HBM tops the on-board variant (extra AXI ports).
  EXPECT_LT(u[Variant::kUram].lut, u[Variant::kHostDram].lut);
  EXPECT_LT(u[Variant::kHostDram].lut, u[Variant::kOnboardDram].lut);
  EXPECT_LT(u[Variant::kOnboardDram].lut, u[Variant::kHbm].lut);
  // Only the URAM variant uses URAM blocks.
  EXPECT_GT(u[Variant::kUram].uram_bytes, 0u);
  EXPECT_EQ(u[Variant::kOnboardDram].uram_bytes, 0u);
  // OOO retirement adds logic to every variant.
  cfg.out_of_order = true;
  for (Variant v : {Variant::kUram, Variant::kOnboardDram}) {
    cfg.variant = v;
    const auto ooo = core::estimate_resources(cfg);
    EXPECT_GT(ooo.lut, u[v].lut);
    EXPECT_GT(ooo.ff, u[v].ff);
  }
}

}  // namespace
}  // namespace snacc
