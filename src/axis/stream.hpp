// AXI4-Stream abstractions.
//
// The paper's user-PE interface is four AXI4-Stream ports (Sec. 4.1). We
// model streams at *chunk* granularity: a Chunk is a contiguous run of beats
// carrying a Payload plus the TLAST marker. Serialization time is charged by
// StreamLink / Stream::send at `ceil(bytes/width)` beats of the port clock,
// which preserves bandwidth and backpressure without simulating every beat.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/payload.hpp"
#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/rate_server.hpp"
#include "sim/task.hpp"

namespace snacc::axis {

/// One stream transfer: a contiguous burst of beats. `last` maps to TLAST on
/// the final beat; `user` carries side-band data (TUSER), e.g. a command tag
/// or an address on the first beat of a write command stream.
///
/// Special members are user-provided on purpose: g++ 12 miscompiles moves of
/// multi-member aggregates with non-trivial members when they are
/// materialized inside a co_await expression (the object is duplicated
/// bitwise and the source destroyed, corrupting Payload ownership). See the
/// note in sim/channel.hpp and the Channel.SharedOwnership* regression
/// tests.
struct Chunk {
  Payload data;
  bool last = false;
  std::uint64_t user = 0;

  Chunk() = default;
  Chunk(Payload d, bool l = false, std::uint64_t u = 0)
      : data(std::move(d)), last(l), user(u) {}
  Chunk(Chunk&& o) noexcept
      : data(std::move(o.data)), last(o.last), user(o.user) {}
  Chunk& operator=(Chunk&& o) noexcept {
    data = std::move(o.data);
    last = o.last;
    user = o.user;
    return *this;
  }
  Chunk(const Chunk& o) : data(o.data), last(o.last), user(o.user) {}
  Chunk& operator=(const Chunk& o) {
    data = o.data;
    last = o.last;
    user = o.user;
    return *this;
  }
};

/// Physical characteristics of a stream port.
struct StreamConfig {
  std::uint32_t width_bytes = 64;   // TDATA width (512 bit default)
  TimePs clock_period = ps(3334);   // 300 MHz
  std::size_t fifo_chunks = 16;     // skid/FIFO depth in chunks
};

/// A timed AXI4-Stream port: bounded FIFO plus beat-rate serialization on
/// the sender side. `send` completes when the final beat has been accepted
/// (i.e. after serialization and FIFO admission); `recv` pops chunks.
class Stream {
 public:
  Stream(sim::Simulator& sim, StreamConfig cfg = {})
      : sim_(&sim),
        cfg_(cfg),
        fifo_(sim, cfg.fifo_chunks),
        wire_(sim, rate_gb_s(cfg)) {}

  static double rate_gb_s(const StreamConfig& cfg) {
    return static_cast<double>(cfg.width_bytes) / 1e9 /
           // snacc-lint: allow(value-escape): double-domain clock arithmetic
           (static_cast<double>(cfg.clock_period.value()) /
            static_cast<double>(kPsPerS));
  }

  /// Beats needed for `bytes` (minimum one: command-only transfers still
  /// occupy a beat).
  std::uint64_t beats(std::uint64_t bytes) const {
    return bytes == 0 ? 1 : (bytes + cfg_.width_bytes - 1) / cfg_.width_bytes;
  }

  sim::Task send(Chunk chunk) {
    const std::uint64_t wire_bytes = beats(chunk.data.size()) * cfg_.width_bytes;
    co_await wire_.acquire(wire_bytes);
    // A close() can race a producer parked on the full FIFO; the failed push
    // drops the chunk and must not count it as sent.
    if (!co_await fifo_.push(std::move(chunk))) co_return;
    bytes_sent_ += wire_bytes;
  }

  /// Sends without charging serialization (for zero-width token streams,
  /// e.g. the write-response stream).
  sim::Task send_token(std::uint64_t user) {
    co_await fifo_.push(Chunk{Payload{}, true, user});
  }

  auto recv() { return fifo_.pop(); }

  void close() { fifo_.close(); }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  sim::Simulator& simulator() const { return *sim_; }

 private:
  sim::Simulator* sim_;
  StreamConfig cfg_;
  sim::Channel<Chunk> fifo_;
  sim::RateServer wire_;
  std::uint64_t bytes_sent_ = 0;
};

/// Splits a payload into chunks of at most `max_bytes`, setting `last` on
/// the final piece when `final_last` is true.
inline sim::Task send_chunked(Stream& out, Payload payload, Bytes max_bytes,
                              bool final_last = true, std::uint64_t user = 0) {
  std::uint64_t off = 0;
  // snacc-lint: allow(value-escape): chunk arithmetic vs raw Payload sizes
  const std::uint64_t max = max_bytes.value();
  const std::uint64_t total = payload.size();
  do {
    const std::uint64_t n = std::min<std::uint64_t>(max, total - off);
    const bool is_last = final_last && (off + n == total);
    co_await out.send(Chunk{payload.slice(off, n), is_last, user});
    off += n;
  } while (off < total);
}

}  // namespace snacc::axis
