// Durability-tier tests (ctest label: faults; docs/DURABILITY.md):
//  - group-committed puts survive a device power cycle,
//  - torn records are truncated (never resurrected) at recovery,
//  - a device crash mid-put is absorbed by the watchdog/retry machinery,
//  - crash-mid-compact leaves the old log authoritative; a completed
//    compaction survives power loss (old-or-new, never a mix),
//  - a 3-way replicated store keeps serving every acknowledged key after
//    one SSD crashes and is quarantined, with read failover and repair.
//
// SNACC_FAULT_SEED (CI seed sweep) varies the crash plans' seeds: the
// torn-destage point moves, the invariants must not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/kv_store.hpp"
#include "fault/fault.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "snacc/replicated_client.hpp"

namespace snacc::apps {
namespace {

std::uint64_t fault_seed() {
  const char* env = std::getenv("SNACC_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0x5EED;
}

fault::FaultPlan seeded(fault::FaultPlan plan) {
  plan.seed = fault_seed();
  return plan;
}

struct DurabilityFixture : ::testing::Test {
  DurabilityFixture() {
    host::SnaccDeviceConfig cfg;
    cfg.streamer.variant = core::Variant::kUram;
    cfg.streamer.cmd_timeout = ms(5);  // crash CQEs are lost; watchdog needed
    dev = std::make_unique<host::SnaccDevice>(sys, cfg);
    bool booted = false;
    auto boot = [](host::SnaccDevice* d, bool* f) -> sim::Task {
      co_await d->init();
      *f = true;
    };
    sys.sim().spawn(boot(dev.get(), &booted));
    sys.sim().run_until(seconds(1));
    EXPECT_TRUE(booted);
    store = std::make_unique<KvStore>(dev->streamer(), Bytes{},
                                      Bytes{256 * MiB});
  }

  void run(sim::Task t, std::uint64_t budget_s = 10) {
    sys.sim().spawn(std::move(t));
    sys.sim().run_until(sys.sim().now() + seconds(budget_s));
  }

  host::System sys;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<KvStore> store;
};

TEST_F(DurabilityFixture, GroupCommittedPutsSurvivePowerCycle) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kIoError;
    for (int i = 0; i < 10; ++i) {
      st = co_await store->put(
          "durable-" + std::to_string(i),
          Payload::filled(3000 + i, static_cast<std::uint8_t>(i)));
      EXPECT_EQ(st, PutStatus::kOk);
    }
    bool committed = co_await store->commit();
    EXPECT_TRUE(committed);
    // Three more puts are acknowledged but never flushed: volatile.
    for (int i = 10; i < 13; ++i) {
      st = co_await store->put(
          "volatile-" + std::to_string(i),
          Payload::filled(2000, 0xEE));
      EXPECT_EQ(st, PutStatus::kOk);
    }
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
  EXPECT_GE(dev->ssd().dirty_cache_blocks(), 1u);

  dev->ssd().power_cycle();
  EXPECT_EQ(dev->ssd().power_cycles(), 1u);
  EXPECT_EQ(dev->ssd().dirty_cache_blocks(), 0u);

  // A fresh store recovers every group-committed put -- and only those.
  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 10u);
    for (int i = 0; i < 10; ++i) {
      const ReadResult got =
          co_await recovered.get("durable-" + std::to_string(i));
      EXPECT_TRUE(got.ok) << "committed key " << i << " lost";
      EXPECT_TRUE(got.data.content_equals(
          Payload::filled(3000 + i, static_cast<std::uint8_t>(i))));
    }
    EXPECT_FALSE((co_await recovered.get("volatile-10")).ok);
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

TEST_F(DurabilityFixture, TornRecordIsTruncatedAtRecovery) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    for (int i = 0; i < 5; ++i) {
      st = co_await store->put(
          "key-" + std::to_string(i),
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i)));
      EXPECT_EQ(st, PutStatus::kOk);
    }
    bool committed = co_await store->commit();
    EXPECT_TRUE(committed);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);

  // Tear the last record's value in place (as a mid-record power loss
  // would): its CRC no longer matches the header.
  const Bytes log_base = Bytes{KvStore::kSuperBytes};
  const Bytes span = KvStore::record_span(Bytes{4 * KiB});
  const Bytes torn_value = log_base + span * 4 + Bytes{KvStore::kHeaderBytes};
  dev->ssd().media().write(torn_value.value(), Payload::filled(4 * KiB, 0x5A));

  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 4u);  // truncated at the torn record
    EXPECT_FALSE((co_await recovered.get("key-4")).ok);
    const ReadResult got = co_await recovered.get("key-3");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(4 * KiB, 3)));
    // Truncation leaves the store writable: the head moved back over the
    // torn record and new puts append (and read back) cleanly.
    PutStatus st = PutStatus::kIoError;
    st = co_await recovered.put("after-truncate",
                                Payload::filled(1 * KiB, 0xAF));
    EXPECT_EQ(st, PutStatus::kOk);
    const ReadResult appended = co_await recovered.get("after-truncate");
    EXPECT_TRUE(appended.ok);
    EXPECT_TRUE(appended.data.content_equals(Payload::filled(1 * KiB, 0xAF)));
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
  EXPECT_EQ(recovered.truncated_records(), 1u);
}

TEST_F(DurabilityFixture, CrashMidPutRecoversViaWatchdogRetry) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    st = co_await store->put("safe-0", Payload::filled(4 * KiB, 0xA0));
    st = co_await store->put("safe-1", Payload::filled(4 * KiB, 0xA1));
    bool committed = co_await store->commit();
    EXPECT_TRUE(committed);
    // The next write command after arming (event 0) powers the device down
    // mid-destage: its CQE is lost, the streamer watchdog times the slot
    // out and the retry rewrites the record from the still-held FPGA
    // buffer.
    dev->ssd().set_crash_plan(seeded(fault::FaultPlan::at({0})));
    st = co_await store->put("crashy", Payload::filled(4 * KiB, 0xC4));
    EXPECT_EQ(st, PutStatus::kOk);  // recovered transparently
    committed = co_await store->commit();
    EXPECT_TRUE(committed);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
  EXPECT_EQ(dev->ssd().crash_faults_injected(), 1u);
  EXPECT_EQ(dev->ssd().power_cycles(), 1u);
  EXPECT_GE(dev->ssd().suppressed_cqes(), 1u);
  EXPECT_GE(dev->streamer().watchdog_timeouts(), 1u);
  EXPECT_GE(dev->streamer().recovered(), 1u);
  const FaultStats fs = dev->fault_stats();
  EXPECT_EQ(fs.ssd_crash_faults, 1u);
  EXPECT_EQ(fs.ssd_power_cycles, 1u);

  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 3u);
    const ReadResult got = co_await recovered.get("crashy");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(4 * KiB, 0xC4)));
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

TEST_F(DurabilityFixture, CrashMidCompactLeavesOldLogAuthoritative) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    for (int i = 0; i < 6; ++i) {
      st = co_await store->put(
          "old-" + std::to_string(i),
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i)));
      EXPECT_EQ(st, PutStatus::kOk);
    }
    bool committed = co_await store->commit();
    EXPECT_TRUE(committed);
    // Crash every attempt of compaction's first scratch write (the original
    // and all max_retries resubmissions): the slot is quarantined, the PE
    // sees a write error, compact() aborts before touching the superblock.
    dev->ssd().set_crash_plan(seeded(fault::FaultPlan::at({0, 1, 2, 3})));
    Bytes reclaimed{123};
    bool ok = true;
    {
      const std::optional<Bytes> r =
          co_await store->compact(Bytes{512 * MiB}, Bytes{256 * MiB});
      ok = r.has_value();
      reclaimed = r.value_or(Bytes{});
    }
    EXPECT_FALSE(ok);
    EXPECT_EQ(reclaimed.value(), 0u);
    EXPECT_EQ(store->generation(), 0u);
    done = true;
  };
  run(t(), /*budget_s=*/30);
  ASSERT_TRUE(done);
  EXPECT_GE(dev->streamer().quarantined(), 1u);

  // Recovery sees the old log, whole and unmixed.
  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 6u);
    EXPECT_EQ(recovered.generation(), 0u);
    for (int i = 0; i < 6; ++i) {
      const ReadResult got = co_await recovered.get("old-" + std::to_string(i));
      EXPECT_TRUE(got.ok);
      EXPECT_TRUE(got.data.content_equals(
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i))));
    }
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

TEST_F(DurabilityFixture, CompletedCompactionSurvivesPowerCycle) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 4; ++i) {
        const auto fill = static_cast<std::uint8_t>(round * 16 + i);
        const PutStatus st = co_await store->put(
            "k" + std::to_string(i), Payload::filled(4 * KiB, fill));
        EXPECT_EQ(st, PutStatus::kOk);
      }
    }
    EXPECT_TRUE(co_await store->commit());
    const bool ok =
        (co_await store->compact(Bytes{512 * MiB}, Bytes{256 * MiB}))
            .has_value();
    EXPECT_TRUE(ok);
    EXPECT_EQ(store->generation(), 1u);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);

  // compact() flushed both the scratch log and the superblock, so power
  // loss right after the switch-over must land recovery on the *new* log.
  dev->ssd().power_cycle();
  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 4u);  // live keys only: the compacted view
    EXPECT_EQ(recovered.generation(), 1u);
    for (int i = 0; i < 4; ++i) {
      const ReadResult got = co_await recovered.get("k" + std::to_string(i));
      EXPECT_TRUE(got.ok);
      EXPECT_TRUE(got.data.content_equals(
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(2 * 16 + i))));
    }
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

// ---------------------------------------------------------------------------
// Replicated writes over the multi-SSD path.

struct ReplicatedFixture : ::testing::Test {
  static constexpr std::uint32_t kReplicas = 3;

  ReplicatedFixture() {
    host::SystemConfig scfg;
    scfg.ssd_count = kReplicas;
    scfg.host_memory_bytes = 4 * GiB;
    sys = std::make_unique<host::System>(scfg);
    pcie::PortId shared = pcie::kInvalidPort;
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      sys->ssd(i).nand().force_mode(true);
      host::SnaccDeviceConfig dcfg;
      dcfg.streamer.variant = core::Variant::kHostDram;
      dcfg.streamer.cmd_timeout = ms(5);
      dcfg.ssd_index = i;
      dcfg.instance = i;
      dcfg.shared_fpga_port = shared;
      devices.push_back(std::make_unique<host::SnaccDevice>(*sys, dcfg));
      shared = devices.back()->fpga_port();
    }
    int booted = 0;
    for (auto& d : devices) {
      auto boot = [](host::SnaccDevice* dv, int* count) -> sim::Task {
        co_await dv->init();
        ++*count;
      };
      sys->sim().spawn(boot(d.get(), &booted));
    }
    sys->sim().run_until(seconds(1));
    EXPECT_EQ(booted, static_cast<int>(kReplicas));
    for (auto& d : devices) {
      clients.push_back(std::make_unique<core::PeClient>(d->streamer()));
    }
    std::vector<core::StorageClient*> ptrs;
    for (auto& c : clients) ptrs.push_back(c.get());
    repl = std::make_unique<core::ReplicatedClient>(sys->sim(), ptrs);
    store = std::make_unique<KvStore>(*repl, Bytes{}, Bytes{256 * MiB});
  }

  void run(sim::Task t, std::uint64_t budget_s = 30) {
    sys->sim().spawn(std::move(t));
    sys->sim().run_until(sys->sim().now() + seconds(budget_s));
  }

  std::unique_ptr<host::System> sys;
  std::vector<std::unique_ptr<host::SnaccDevice>> devices;
  std::vector<std::unique_ptr<core::PeClient>> clients;
  std::unique_ptr<core::ReplicatedClient> repl;
  std::unique_ptr<KvStore> store;
};

TEST_F(ReplicatedFixture, ServesAllAcknowledgedKeysAfterOneReplicaCrashes) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    for (int i = 0; i < 8; ++i) {
      st = co_await store->put(
          "pre-" + std::to_string(i),
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i)));
      EXPECT_EQ(st, PutStatus::kOk);
    }
    bool committed = co_await store->commit();
    EXPECT_TRUE(committed);

    // Replica 0 dies: power loss, then every later command on it errors
    // out. The next fan-out exhausts its resubmissions and quarantines it.
    sys->ssd(0).power_cycle();
    sys->ssd(0).set_internal_fault_plan(
        seeded(fault::FaultPlan::rate(1.0, 0)));
    for (int i = 8; i < 12; ++i) {
      st = co_await store->put(
          "post-" + std::to_string(i),
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i)));
      EXPECT_EQ(st, PutStatus::kOk) << "2-of-3 quorum must still ack";
    }
    committed = co_await store->commit();
    EXPECT_TRUE(committed);
    EXPECT_TRUE(repl->replica_quarantined(0));
    EXPECT_EQ(repl->live_replicas(), 2u);

    // Every acknowledged key -- from before and after the crash -- is
    // served, reads failing over past the dead replica.
    for (int i = 0; i < 12; ++i) {
      const std::string key =
          (i < 8 ? "pre-" : "post-") + std::to_string(i);
      const ReadResult got = co_await store->get(key);
      EXPECT_TRUE(got.ok) << key;
      EXPECT_TRUE(got.data.content_equals(
          Payload::filled(4 * KiB, static_cast<std::uint8_t>(i))))
          << key;
    }
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
  EXPECT_GE(repl->resubmissions(), 1u);
  EXPECT_EQ(repl->replicas_lost(), 1u);
  EXPECT_EQ(repl->quorum_failures(), 0u);

  // A fresh replicated store still recovers the full log.
  KvStore recovered(*repl, Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 12u);
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

TEST_F(ReplicatedFixture, TransientReadFailureTriggersReadRepair) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    st = co_await store->put("repairable", Payload::filled(4 * KiB, 0x7E));
    EXPECT_EQ(st, PutStatus::kOk);
    EXPECT_TRUE(co_await store->commit());

    // Replica 0's next read fails persistently enough to quarantine the
    // streamer slot (all retries), but the replica itself stays live: the
    // read fails over to replica 1 and the good blocks are written back.
    sys->ssd(0).set_internal_fault_plan(
        seeded(fault::FaultPlan::at({0, 1, 2, 3})));
    const ReadResult got = co_await store->get("repairable");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(4 * KiB, 0x7E)));
    EXPECT_GE(repl->read_failovers(), 1u);
    EXPECT_GE(repl->read_repairs(), 1u);
    EXPECT_FALSE(repl->replica_quarantined(0));

    // The repaired replica serves the key again (fault plan exhausted).
    const ReadResult again = co_await store->get("repairable");
    EXPECT_TRUE(again.ok);
    EXPECT_TRUE(again.data.content_equals(Payload::filled(4 * KiB, 0x7E)));
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
}

}  // namespace
}  // namespace snacc::apps
