// KvStore tests: put/get round trips, overwrite semantics (latest wins),
// values spanning multiple NVMe commands, index recovery from the on-device
// log, and capacity handling.
#include <gtest/gtest.h>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"

namespace snacc::apps {
namespace {

struct KvFixture : ::testing::Test {
  KvFixture() {
    host::SnaccDeviceConfig cfg;
    cfg.streamer.variant = core::Variant::kUram;
    dev = std::make_unique<host::SnaccDevice>(sys, cfg);
    bool booted = false;
    auto boot = [](host::SnaccDevice* d, bool* f) -> sim::Task {
      co_await d->init();
      *f = true;
    };
    sys.sim().spawn(boot(dev.get(), &booted));
    sys.sim().run_until(seconds(1));
    EXPECT_TRUE(booted);
    store = std::make_unique<KvStore>(dev->streamer(), /*log_base=*/Bytes{},
                                      /*log_capacity=*/Bytes{256 * MiB});
  }

  void run(sim::Task t, std::uint64_t budget_s = 10) {
    sys.sim().spawn(std::move(t));
    sys.sim().run_until(sys.sim().now() + seconds(budget_s));
  }

  host::System sys;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<KvStore> store;
};

TEST_F(KvFixture, PutGetRoundTrip) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kIoError;
    st = co_await store->put("alpha", Payload::filled(1000, 0xA1));
    EXPECT_EQ(st, PutStatus::kOk);
    const ReadResult got = co_await store->get("alpha");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(1000, 0xA1)));
    EXPECT_FALSE((co_await store->get("missing")).ok);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
  EXPECT_EQ(store->entries(), 1u);
}

TEST_F(KvFixture, OverwriteReturnsLatestVersion) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    co_await store->put("key", Payload::filled(500, 0x01));
    co_await store->put("key", Payload::filled(900, 0x02));
    const ReadResult got = co_await store->get("key");
    EXPECT_TRUE(got.ok);
    EXPECT_EQ(got.data.size(), 900u);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(900, 0x02)));
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
  EXPECT_EQ(store->entries(), 1u);  // one live key, two log records
  EXPECT_EQ(store->log_bytes_used().value(),
            (KvStore::record_span(Bytes{500}) + KvStore::record_span(Bytes{900}))
                .value());
}

TEST_F(KvFixture, LargeValueSpansMultipleCommands) {
  Xoshiro256 rng(3);
  std::vector<std::byte> big(2 * MiB + 5000);
  for (auto& b : big) b = static_cast<std::byte>(rng.next() & 0xFF);
  Payload value = Payload::bytes(std::move(big));
  bool done = false;
  auto t = [&]() -> sim::Task {
    co_await store->put("blob", value);
    const ReadResult got = co_await store->get("blob");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(value));
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
}

TEST_F(KvFixture, RecoveryRebuildsIndexFromLog) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    for (int i = 0; i < 20; ++i) {
      co_await store->put("key-" + std::to_string(i),
                          Payload::filled(100 + i * 37,
                                          static_cast<std::uint8_t>(i)));
    }
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);

  // A fresh store instance (lost in-memory index) recovers from the log.
  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 20u);
    const ReadResult got = co_await recovered.get("key-7");
    EXPECT_TRUE(got.ok);
    EXPECT_TRUE(got.data.content_equals(Payload::filled(100 + 7 * 37, 7)));
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
  EXPECT_EQ(recovered.entries(), 20u);
  EXPECT_EQ(recovered.log_bytes_used(), store->log_bytes_used());
}

TEST_F(KvFixture, CompactionReclaimsOverwrittenSpace) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    // 10 keys, each overwritten 4 times: 50 records, 10 live.
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 10; ++i) {
        co_await store->put(
            "k" + std::to_string(i),
            Payload::filled(1000 + i * 100,
                            static_cast<std::uint8_t>(round * 16 + i)));
      }
    }
    const Bytes before = store->log_bytes_used();
    Bytes reclaimed;
    reclaimed =
        (co_await store->compact(/*scratch_base=*/Bytes{512 * MiB},
                                 Bytes{256 * MiB}))
            .value_or(Bytes{});
    EXPECT_GT(reclaimed.value(), 0u);
    EXPECT_EQ(store->log_bytes_used().value(), (before - reclaimed).value());
    EXPECT_EQ(store->entries(), 10u);
    // Every key still returns its latest version.
    for (int i = 0; i < 10; ++i) {
      const ReadResult got = co_await store->get("k" + std::to_string(i));
      EXPECT_TRUE(got.ok);
      EXPECT_TRUE(got.data.content_equals(Payload::filled(
          1000 + i * 100, static_cast<std::uint8_t>(4 * 16 + i))));
    }
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);

  // The compacted log is recoverable from the *original* region: the
  // superblock there names the new generation's extent.
  KvStore recovered(dev->streamer(), Bytes{}, Bytes{256 * MiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    std::uint64_t records = co_await recovered.recover();
    EXPECT_EQ(records, 10u);
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

TEST_F(KvFixture, CompactionAbortsWhenScratchTooSmall) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    co_await store->put("a", Payload::filled(64 * KiB, 1));
    co_await store->put("b", Payload::filled(64 * KiB, 2));
    const Bytes before = store->log_bytes_used();
    Bytes reclaimed{123};
    reclaimed =
        (co_await store->compact(Bytes{512 * MiB}, Bytes{8 * KiB}))
            .value_or(Bytes{});
    EXPECT_EQ(reclaimed.value(), 0u);
    EXPECT_EQ(store->log_bytes_used().value(), before.value());  // unchanged, still valid
    const ReadResult got = co_await store->get("a");
    EXPECT_TRUE(got.ok);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);
}

TEST_F(KvFixture, OversizedKeyAndFullLogAreRejected) {
  bool done = false;
  auto t = [&]() -> sim::Task {
    PutStatus st = PutStatus::kOk;
    st = co_await store->put(std::string(4000, 'k'), Payload::filled(10, 1));
    EXPECT_EQ(st, PutStatus::kOversizedKey);
    done = true;
  };
  run(t());
  ASSERT_TRUE(done);

  KvStore tiny(dev->streamer(), Bytes{512 * MiB}, Bytes{16 * KiB});
  bool done2 = false;
  auto t2 = [&]() -> sim::Task {
    PutStatus st = PutStatus::kIoError;
    st = co_await tiny.put("fits", Payload::filled(100, 1));
    EXPECT_EQ(st, PutStatus::kOk);
    st = co_await tiny.put("does-not", Payload::filled(100 * KiB, 2));
    EXPECT_EQ(st, PutStatus::kLogFull);
    done2 = true;
  };
  run(t2());
  ASSERT_TRUE(done2);
}

}  // namespace
}  // namespace snacc::apps
