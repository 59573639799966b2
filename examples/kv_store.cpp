// A log-structured key-value store served directly from the FPGA's NVMe
// path -- the "network accessible database" use case from the paper's
// introduction. Demonstrates puts/gets of mixed sizes, overwrites, and crash
// recovery (index rebuild by scanning the on-device log).
//
//   $ ./kv_store
#include <cstdio>

#include "apps/kv_store.hpp"
#include "common/rng.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"

using namespace snacc;

int main() {
  host::System sys;
  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = core::Variant::kOnboardDram;
  host::SnaccDevice dev(sys, cfg);
  bool ready = false;
  // `boot` is a named local whose
  // closure outlives run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    ready = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  if (!ready) return 1;

  apps::KvStore store(dev.streamer(), /*log_base=*/Bytes{},
                      /*log_capacity=*/Bytes{1 * GiB});
  bool done = false;
  // `workload` is a named local whose
  // closure outlives run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto workload = [&]() -> sim::Task {
    Xoshiro256 rng(2026);
    // Load phase: 200 keys with values from 100 B to 256 KiB.
    TimePs t0 = sys.sim().now();
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t size = 100 + rng.below(256 * KiB);
      const apps::PutStatus st = co_await store.put(
          "user:" + std::to_string(i),
          Payload::filled(size, static_cast<std::uint8_t>(i)));
      if (st != apps::PutStatus::kOk) {
        std::printf("put user:%d failed: %s\n", i, apps::put_status_name(st));
        // Bail out, but flush first: the keys already acknowledged would
        // otherwise sit volatile in the log and vanish on a crash.
        if (!co_await store.commit()) std::printf("commit FAILED\n");
        co_return;
      }
    }
    // Group commit: one flush barrier makes the whole load phase durable.
    const bool committed = co_await store.commit();
    std::printf("loaded %llu keys (%.1f MB of log) in %.2f ms, commit %s\n",
                static_cast<unsigned long long>(store.entries()),
                store.log_bytes_used().value() / 1e6,
                to_ms(sys.sim().now() - t0), committed ? "ok" : "FAILED");

    // Overwrite some keys: the log grows, the index keeps the latest.
    for (int i = 0; i < 50; ++i) {
      const apps::PutStatus st = co_await store.put(
          "user:" + std::to_string(i), Payload::filled(2048, 0xFF));
      if (st != apps::PutStatus::kOk) {
        std::printf("overwrite user:%d failed: %s\n", i,
                    apps::put_status_name(st));
        if (!co_await store.commit()) std::printf("commit FAILED\n");
        co_return;
      }
    }
    if (!co_await store.commit()) {
      std::printf("overwrite commit FAILED\n");
      co_return;
    }

    // Point lookups.
    t0 = sys.sim().now();
    int hits = 0;
    for (int i = 0; i < 100; ++i) {
      const ReadResult value =
          co_await store.get("user:" + std::to_string(rng.below(200)));
      hits += value.ok ? 1 : 0;
    }
    std::printf("100 point lookups, %d hits, avg %.1f us each\n", hits,
                to_us(sys.sim().now() - t0) / 100);

    // Simulated restart: a new store instance rebuilds its index from the
    // on-device log.
    apps::KvStore recovered(dev.streamer(), Bytes{}, Bytes{1 * GiB});
    t0 = sys.sim().now();
    const std::uint64_t records = co_await recovered.recover();
    std::printf("recovery scanned %llu records in %.2f ms -> %llu live keys\n",
                static_cast<unsigned long long>(records),
                to_ms(sys.sim().now() - t0),
                static_cast<unsigned long long>(recovered.entries()));

    const ReadResult check = co_await recovered.get("user:7");
    std::printf("post-recovery read of user:7 -> %s (%llu bytes, %s)\n",
                check.ok ? "found" : "missing",
                static_cast<unsigned long long>(check.data.size()),
                check.data.content_equals(Payload::filled(2048, 0xFF))
                    ? "latest version"
                    : "STALE");
    done = true;
  };
  sys.sim().spawn(workload());
  sys.sim().run_until(sys.sim().now() + seconds(30));
  return done ? 0 : 1;
}
