// Ablation: durability tier -- replica count vs. delivered put goodput and
// cold recovery time. Builds a KV store over a ReplicatedClient spanning
// 1/2/3 SSDs and streams group-committed 4 KiB puts, then measures how long
// a fresh store takes to replay (CRC-verify) the log after a power cycle.
// Each replica count runs twice: clean, and with replica 0 armed with the
// crash plan (power loss mid-destage) plus a NAND read-fault plan on every
// device during recovery -- the watchdog retry, quorum ack, and read
// failover absorb the faults, so acknowledged data is always served.
#include "bench_common.hpp"

#include "apps/kv_store.hpp"
#include "fault/fault.hpp"
#include "snacc/replicated_client.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kValueBytes = 4 * KiB;
constexpr int kPuts = 192;
constexpr int kGroupCommit = 16;
static_assert(kPuts % kGroupCommit == 0, "every put is in a committed group");
constexpr std::uint64_t kRegion = 256 * MiB;
constexpr std::uint64_t kFaultSeed = 0x5EED;

struct Result {
  double goodput_gb_s = 0.0;
  double recovery_ms = 0.0;
  std::uint64_t recovered_records = 0;
  std::uint64_t crash_faults = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t quorum_failures = 0;
  bool all_served = false;
};

Result run_tier(std::uint32_t replicas, bool faulted) {
  // One SNAcc streamer per replica SSD, a PeClient each, and a
  // ReplicatedClient on top.
  host::SnaccDeviceConfig dcfg;
  dcfg.streamer.cmd_timeout = ms(5);
  auto bed = MultiSsdBed::make(replicas, dcfg);
  std::vector<std::unique_ptr<core::PeClient>> clients;
  std::vector<core::StorageClient*> ptrs;
  for (core::NvmeStreamer* s : bed.streamers()) {
    clients.push_back(std::make_unique<core::PeClient>(*s));
    ptrs.push_back(clients.back().get());
  }
  core::ReplicatedClient repl(bed.sys->sim(), ptrs);
  apps::KvStore store(repl, Bytes{}, Bytes{kRegion});

  Result r;
  TimePs t0;
  TimePs t1;
  TimePs r0;
  TimePs r1;
  // `io` is a named local whose closure
  // outlives sim.run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto io = [&]() -> sim::Task {
    if (faulted) {
      // Replica 0 loses power mid-destage partway through the stream (the
      // schedule index counts commands from arming, i.e. from here).
      auto crash = fault::FaultPlan::at({32});
      crash.seed = kFaultSeed;
      bed.sys->ssd(0).set_crash_plan(crash);
    }

    t0 = bed.sys->sim().now();
    for (int group = 0; group < kPuts; group += kGroupCommit) {
      for (int i = group; i < group + kGroupCommit; ++i) {
        const apps::PutStatus st = co_await store.put(
            "k-" + std::to_string(i),
            Payload::filled(kValueBytes, static_cast<std::uint8_t>(i)));
        if (st != apps::PutStatus::kOk) {
          std::fprintf(stderr, "  put %d failed: %s\n", i,
                       apps::put_status_name(st));
          std::abort();
        }
      }
      expect_ok(co_await store.commit(), "group commit");
    }
    t1 = bed.sys->sim().now();

    if (faulted) {
      // Existing fault plans on the recovery path: uncorrectable NAND reads
      // on every replica while the fresh store CRC-scans the log.
      for (std::uint32_t i = 0; i < replicas; ++i) {
        auto reads = fault::FaultPlan::rate(1e-3, /*seed=*/0);
        reads.seed = kFaultSeed + i;
        bed.sys->ssd(i).nand().set_read_fault_plan(reads);
      }
    }

    // Cold restart: a fresh store replays (and CRC-verifies) the whole log.
    apps::KvStore fresh(repl, Bytes{}, Bytes{kRegion});
    r0 = bed.sys->sim().now();
    r.recovered_records = co_await fresh.recover();
    r1 = bed.sys->sim().now();

    // Every acknowledged key is served with the bytes that were committed.
    r.all_served = true;
    for (int i = 0; i < kPuts; ++i) {
      const ReadResult got = co_await fresh.get("k-" + std::to_string(i));
      r.all_served &=
          got.ok && got.data.content_equals(Payload::filled(
                        kValueBytes, static_cast<std::uint8_t>(i)));
    }
  };
  bed.run(io(), 120);
  r.goodput_gb_s = gb_per_s(static_cast<std::uint64_t>(kPuts) * kValueBytes,
                            t1 - t0);
  r.recovery_ms = to_ms(r1 - r0);
  r.crash_faults = bed.sys->ssd(0).crash_faults_injected();
  r.resubmissions = repl.resubmissions();
  r.quorum_failures = repl.quorum_failures();
  return r;
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: durability tier -- replica count vs. put goodput and "
      "recovery time (4 KiB group-committed puts)");
  JsonReport rep("ablation_durability");

  bool all_ok = true;
  for (int faulted = 0; faulted <= 1; ++faulted) {
    std::printf("  %s:\n", faulted
                               ? "crash plan on replica 0 + NAND read faults"
                               : "fault-free");
    for (std::uint32_t replicas = 1; replicas <= 3; ++replicas) {
      const Result r = run_tier(replicas, faulted != 0);
      std::printf(
          "    replicas %u  goodput %6.3f GB/s  recovery %7.3f ms  "
          "records %3llu  crash %llu  resub %2llu  quorum-fail %llu  %s\n",
          replicas, r.goodput_gb_s, r.recovery_ms,
          static_cast<unsigned long long>(r.recovered_records),
          static_cast<unsigned long long>(r.crash_faults),
          static_cast<unsigned long long>(r.resubmissions),
          static_cast<unsigned long long>(r.quorum_failures),
          r.all_served ? "[all served]" : "[DATA LOSS]");
      all_ok &= r.all_served && r.recovered_records ==
                                   static_cast<std::uint64_t>(kPuts);
      all_ok &= r.quorum_failures == 0;
      if (faulted) all_ok &= r.crash_faults == 1;
      const std::string k = std::string(faulted ? "faulted" : "clean") +
                            "_replicas_" + std::to_string(replicas);
      rep.metric(k + "_goodput_gb_s", r.goodput_gb_s);
      rep.metric(k + "_recovery_ms", r.recovery_ms);
      rep.metric(k + "_records", static_cast<double>(r.recovered_records));
      rep.metric(k + "_resubmissions", static_cast<double>(r.resubmissions));
    }
  }
  std::printf("  durability invariants: %s\n",
              all_ok ? "all hold" : "VIOLATED");
  return all_ok ? 0 : 1;
}
