// Streaming ETL: the generic network-to-storage pattern from the paper's
// abstract ("often paired with pre-processing before storing results for
// later use"), without the DNN. Records arrive over 100 G Ethernet, a
// filter/transform PE drops invalid records and computes a running digest,
// and the survivors are packed into block-aligned segments written straight
// to NVMe -- no host on the data path.
//
//   $ ./streaming_etl [record_count]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "eth/mac.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "sim/sync.hpp"
#include "snacc/pe_client.hpp"

using namespace snacc;

namespace {

// A fixed-size telemetry record; ~25% are marked invalid at the source and
// must be filtered out.
struct Record {
  static constexpr std::uint64_t kBytes = 512;
  static Payload make(std::uint64_t id, bool valid) {
    std::vector<std::byte> raw(kBytes, std::byte{0});
    const std::uint64_t magic = valid ? 0x45544C31 : 0xDEAD;
    std::memcpy(raw.data(), &magic, 8);
    std::memcpy(raw.data() + 8, &id, 8);
    std::uint64_t payload = id * 2654435761u;
    std::memcpy(raw.data() + 16, &payload, 8);
    return Payload::bytes(std::move(raw));
  }
  static bool valid(std::span<const std::byte> raw, std::uint64_t* id,
                    std::uint64_t* value) {
    std::uint64_t magic = 0;
    std::memcpy(&magic, raw.data(), 8);
    if (magic != 0x45544C31) return false;
    std::memcpy(id, raw.data() + 8, 8);
    std::memcpy(value, raw.data() + 16, 8);
    return true;
  }
};

/// Retires segment-write responses as they arrive. The streamer's response
/// FIFO holds 16 tokens, and a full FIFO stalls retirement -- and with it
/// the issue credits and ring space the next write needs -- so a writer
/// that reaps only after its last write deadlocks after about 22 segments.
sim::Task reap_writes(core::PeClient* pe, sim::WaitGroup* pending) {
  while (true) {
    co_await pe->wait_write_response();
    pending->done();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t record_count =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 200000;

  host::System sys;
  sys.ssd().nand().force_mode(true);
  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = core::Variant::kUram;
  host::SnaccDevice dev(sys, cfg);
  bool booted = false;
  // `boot` is a named local whose
  // closure outlives run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  if (!booted) return 1;

  const auto& eth_profile = sys.config().profile.eth;
  eth::Wire tx_wire(sys.sim(), eth_profile);
  eth::Wire rx_wire(sys.sim(), eth_profile);
  eth::Mac tx(sys.sim(), eth_profile, tx_wire, rx_wire, "source");
  eth::Mac rx(sys.sim(), eth_profile, rx_wire, tx_wire, "etl");
  tx.start();
  rx.start();

  core::PeClient pe(dev.streamer());
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  std::uint64_t digest = 0;
  std::uint64_t segments = 0;
  sim::WaitGroup pending(sys.sim());
  bool done = false;
  TimePs t0;
  TimePs t1;

  // Source: batches of records per Ethernet frame.
  // `source` is a named local whose
  // closure outlives run_until(); the frame completes before destruction.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto source = [&]() -> sim::Task {
    Xoshiro256 rng(7);
    constexpr std::uint64_t kPerFrame = 8;
    std::vector<Payload> batch;
    for (std::uint64_t id = 0; id < record_count; ++id) {
      batch.push_back(Record::make(id, !rng.chance(0.25)));
      if (batch.size() == kPerFrame || id + 1 == record_count) {
        co_await tx.send(eth::Frame(Payload::gather(batch), 0, id, false));
        batch.clear();
      }
    }
    co_await tx.send(eth::Frame(Payload{}, 0, 0, true));  // end marker
  };

  // ETL PE: parse, filter, digest, pack into 1 MiB segments, store.
  // `etl` is a named local whose
  // closure outlives run_until(); the frame completes before destruction.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto etl = [&]() -> sim::Task {
    t0 = sys.sim().now();
    std::vector<Payload> segment;
    std::uint64_t segment_bytes = 0;
    std::uint64_t cursor = 0;
    bool eos = false;
    while (!eos) {
      std::optional<eth::Frame> frame;
      co_await rx.recv_accounted(&frame);
      if (!frame || frame->end_of_object) eos = true;
      if (frame && frame->payload.size() > 0) {
        auto raw = frame->payload.view();
        for (std::size_t off = 0; off + Record::kBytes <= raw.size();
             off += Record::kBytes) {
          std::uint64_t id = 0;
          std::uint64_t value = 0;
          if (Record::valid(raw.subspan(off, Record::kBytes), &id, &value)) {
            digest ^= value * (id | 1);
            segment.push_back(frame->payload.slice(off, Record::kBytes));
            segment_bytes += Record::kBytes;
            ++kept;
          } else {
            ++dropped;
          }
        }
      }
      if (segment_bytes >= 1 * MiB || (eos && segment_bytes > 0)) {
        pending.add();
        co_await pe.start_write(Bytes{cursor}, Payload::gather(segment));
        segment.clear();
        cursor += (segment_bytes + kPageSize - 1) & ~(kPageSize - 1);
        segment_bytes = 0;
        ++segments;
      }
    }
    co_await pending.wait();
    t1 = sys.sim().now();
    done = true;
  };

  sys.sim().spawn(source());
  sys.sim().spawn(reap_writes(&pe, &pending));
  sys.sim().spawn(etl());
  sys.sim().run_until(sys.sim().now() + seconds(60));
  if (!done) {
    std::fprintf(stderr, "pipeline did not finish\n");
    return 1;
  }

  const std::uint64_t in_bytes = record_count * Record::kBytes;
  std::printf("ingested %llu records (%.1f MB) in %.2f ms -> %.2f GB/s\n",
              static_cast<unsigned long long>(record_count), in_bytes / 1e6,
              to_ms(t1 - t0), gb_per_s(in_bytes, t1 - t0));
  std::printf("kept %llu, dropped %llu (%.1f%%), digest %016llx\n",
              static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(dropped),
              100.0 * dropped / record_count,
              static_cast<unsigned long long>(digest));
  std::printf("stored %llu segments (%.1f MB) on the SSD, media pages %zu\n",
              static_cast<unsigned long long>(segments),
              kept * Record::kBytes / 1e6,
              sys.ssd().media().resident_pages());
  return 0;
}
