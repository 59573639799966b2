// Ablation: fault rate vs. delivered goodput. Sweeps the NAND
// uncorrectable-read probability and measures what the recovery path
// actually delivers -- random 4 KiB reads through the SNAcc streamer
// (per-command watchdog + bounded retry) and through the SPDK baseline
// driver (software resubmission). Prints per-rate goodput alongside the
// fault/retry/quarantine counters and checks the accounting identities:
// every injected fault surfaces as an error CQE, every error CQE is either
// retried or quarantined, and every submission retires exactly once.
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/fault.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kRegion = 64 * MiB;
constexpr std::uint64_t kIoBytes = 4 * KiB;
constexpr int kReads = 4096;

struct Result {
  double goodput_gb_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  FaultStats fs;
  bool accounted = false;
  bool no_lost_commands = false;
};

Result run_snacc(double rate) {
  host::SnaccDeviceConfig cfg;
  cfg.streamer.cmd_timeout = ms(5);
  cfg.streamer.max_retries = 8;
  auto bed = SnaccBed::make(core::Variant::kUram, cfg);
  bed.sys->ssd().nand().force_mode(true);

  Result r;
  TimePs t0;
  TimePs t1;
  // `io` is a named local whose closure
  // outlives sim.run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto io = [&]() -> sim::Task {
    // Populate the region first (no program faults armed), then arm the
    // read-fault plan so only the measured reads see it.
    expect_ok(co_await bed.pe->write(Bytes{0}, Payload::phantom(kRegion)),
              "SNAcc populate");
    if (rate > 0.0) {
      bed.sys->ssd().nand().set_read_fault_plan(
          fault::FaultPlan::rate(rate, /*seed=*/99));
    }
    Xoshiro256 rng(17);
    t0 = bed.sys->sim().now();
    for (int i = 0; i < kReads; ++i) {
      const std::uint64_t addr = rng.below(kRegion / kIoBytes) * kIoBytes;
      if (!(co_await bed.pe->read(Bytes{addr}, Bytes{kIoBytes})).ok) {
        ++r.failed;
      } else {
        r.delivered += kIoBytes;
      }
    }
    t1 = bed.sys->sim().now();
  };
  bed.run(io(), 120);
  r.goodput_gb_s = gb_per_s(r.delivered, t1 - t0);
  r.fs = bed.dev->fault_stats();
  // Injected faults bound error CQEs from above (a multi-page command can
  // fault on several pages yet post one CQE); with single-page 4 KiB reads
  // the two match. Every streamer-visible error was retried or quarantined.
  r.accounted = r.fs.injected() >= r.fs.ssd_error_cqes &&
                (r.fs.injected() == 0 || r.fs.ssd_error_cqes > 0) &&
                r.fs.streamer_errors == r.fs.retries + r.fs.quarantined;
  r.no_lost_commands = bed.dev->streamer().commands_submitted() ==
                       bed.dev->streamer().commands_retired() + r.fs.retries;
  return r;
}

Result run_spdk(double rate) {
  spdk::DriverConfig cfg;
  cfg.max_retries = 8;
  auto bed = SpdkBed::make(cfg);
  bed.sys->ssd().nand().force_mode(true);

  Result r;
  TimePs t0;
  TimePs t1;
  // `io` is a named local whose closure
  // outlives sim.run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto io = [&]() -> sim::Task {
    expect_ok(co_await bed.driver->write(Lba{}, Payload::phantom(kRegion)) ==
                  nvme::Status::kSuccess,
              "SPDK populate");
    if (rate > 0.0) {
      bed.sys->ssd().nand().set_read_fault_plan(
          fault::FaultPlan::rate(rate, /*seed=*/99));
    }
    Xoshiro256 rng(17);
    t0 = bed.sys->sim().now();
    for (int i = 0; i < kReads; ++i) {
      const Lba lba{rng.below(kRegion / kIoBytes) * (kIoBytes / 512)};
      const spdk::ReadCompletion got =
          co_await bed.driver->read(lba, Bytes{kIoBytes});
      if (got.status == nvme::Status::kSuccess) r.delivered += kIoBytes;
    }
    t1 = bed.sys->sim().now();
  };
  bed.run(io(), 120);
  r.failed = bed.driver->io_failed();
  r.goodput_gb_s = gb_per_s(r.delivered, t1 - t0);
  r.fs.retries = bed.driver->io_retries();
  r.fs.ssd_error_cqes = bed.sys->ssd().error_cqes();
  return r;
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: per-command fault rate vs. delivered goodput "
      "(4 KiB random reads, recovery enabled)");
  const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};
  JsonReport rep("ablation_faults");
  auto rate_key = [](double rate) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0e", rate);
    return JsonReport::key(buf);
  };

  std::printf("  SNAcc streamer (watchdog + bounded retry, max 8):\n");
  bool all_accounted = true;
  for (double rate : rates) {
    const Result r = run_snacc(rate);
    std::printf(
        "    rate %7.0e  goodput %6.2f GB/s  err-cqe %4llu  retries %4llu  "
        "recovered %4llu  quarantined %3llu  %s %s\n",
        rate, r.goodput_gb_s,
        static_cast<unsigned long long>(r.fs.ssd_error_cqes),
        static_cast<unsigned long long>(r.fs.retries),
        static_cast<unsigned long long>(r.fs.recovered),
        static_cast<unsigned long long>(r.fs.quarantined),
        r.accounted ? "[accounted]" : "[ACCOUNTING MISMATCH]",
        r.no_lost_commands ? "[no lost commands]" : "[LOST COMMANDS]");
    all_accounted &= r.accounted && r.no_lost_commands;
    const std::string k = "snacc_rate_" + rate_key(rate);
    rep.metric(k + "_goodput_gb_s", r.goodput_gb_s);
    rep.metric(k + "_recovered", static_cast<double>(r.fs.recovered));
    rep.metric(k + "_quarantined", static_cast<double>(r.fs.quarantined));
  }

  std::printf("  SPDK baseline (software resubmission, max 8):\n");
  for (double rate : rates) {
    const Result r = run_spdk(rate);
    std::printf(
        "    rate %7.0e  goodput %6.2f GB/s  err-cqe %4llu  retries %4llu  "
        "failed %3llu\n",
        rate, r.goodput_gb_s,
        static_cast<unsigned long long>(r.fs.ssd_error_cqes),
        static_cast<unsigned long long>(r.fs.retries),
        static_cast<unsigned long long>(r.failed));
    rep.metric("spdk_rate_" + rate_key(rate) + "_goodput_gb_s", r.goodput_gb_s);
  }
  std::printf("  accounting identities: %s\n",
              all_accounted ? "all hold" : "VIOLATED");
  return all_accounted ? 0 : 1;
}
