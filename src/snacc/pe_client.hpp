// PeClient: convenience wrapper a user Processing Element (or a test/bench)
// uses to drive the streamer's four AXI4-Stream ports (Sec. 4.1).
//
// Reads: send a 16-byte command beat, then collect data chunks until TLAST.
// Writes: send the address beat, the data beats (TLAST on the final one),
// then wait for the response token. Commands may be pipelined with
// `start_read`/`collect_read` style usage by issuing from separate tasks; the
// streamer retires strictly in issue order, so responses never interleave.
#pragma once

#include <cstdint>

#include "axis/stream.hpp"
#include "snacc/storage_client.hpp"
#include "snacc/streamer.hpp"

namespace snacc::core {

class PeClient : public StorageClient {
 public:
  explicit PeClient(NvmeStreamer& streamer) : s_(streamer) {}

  NvmeStreamer& streamer() { return s_; }

  /// Reads [addr, addr+len) device bytes. `ok` is false when any beat
  /// carried the quarantine TUSER tag -- the data is then placeholder
  /// bytes (none for a rejected command).
  sim::TaskOf<ReadResult> read(Bytes addr, Bytes len) override {
    co_await s_.read_cmd_in().send(
        axis::Chunk{encode_read_command(addr, len), true, 0});
    ReadResult r;
    bool error = false;
    co_await collect_read(&r.data, &error);
    r.ok = !error;
    co_return r;
  }

  /// Issues a read command without waiting for data.
  sim::Task start_read(Bytes addr, Bytes len) {
    co_await s_.read_cmd_in().send(
        axis::Chunk{encode_read_command(addr, len), true, 0});
  }

  /// Collects one read response (until TLAST).
  sim::Task collect_read(Payload* out, bool* error = nullptr) {
    std::vector<Payload> parts;
    bool saw_error = false;
    while (true) {
      auto chunk = co_await s_.read_data_out().recv();
      if (!chunk) break;  // stream closed
      saw_error = saw_error || (chunk->user & kReadErrorUser) != 0;
      parts.push_back(std::move(chunk->data));
      if (chunk->last) break;
    }
    if (out != nullptr) *out = Payload::gather(parts);
    if (error != nullptr) *error = saw_error;
  }

  /// Writes `data` to device byte address `addr` (must be block-aligned)
  /// and waits for the response token; false when the token carries the
  /// data-loss bit (a quarantined sub-command, or a rejected packet).
  sim::TaskOf<bool> write(Bytes addr, Payload data, Bytes chunk_bytes) {
    co_await start_write(addr, std::move(data), chunk_bytes);
    bool error = false;
    co_await wait_write_response(&error);
    co_return !error;
  }

  /// StorageClient surface (default 16 kB stream chunking).
  sim::TaskOf<bool> write(Bytes addr, Payload data) override {
    co_return co_await write(addr, std::move(data), Bytes{16 * KiB});
  }

  /// Durability barrier: an NVMe Flush through the streamer's write path.
  /// Ordered behind every earlier write submission; the device destages its
  /// volatile cache for all *completed* commands, so callers needing a hard
  /// guarantee wait for their write responses first (KvStore::commit does).
  sim::TaskOf<bool> flush() override {
    co_await s_.write_in().send(axis::Chunk{encode_flush_command(), true, 0});
    bool error = false;
    co_await wait_write_response(&error);
    co_return !error;
  }

  /// Streams the write without waiting for the token.
  sim::Task start_write(Bytes addr, Payload data,
                        Bytes chunk_bytes = Bytes{16 * KiB}) {
    co_await s_.write_in().send(
        axis::Chunk{encode_write_address(addr), false, 0});
    co_await axis::send_chunked(s_.write_in(), std::move(data), chunk_bytes,
                                /*final_last=*/true);
  }

  sim::Task wait_write_response(bool* error = nullptr) {
    auto token = co_await s_.write_resp_out().recv();
    if (error != nullptr) {
      *error = token && (token->user & kWriteRespErrorBit) != 0;
    }
  }

 private:
  NvmeStreamer& s_;
};

}  // namespace snacc::core
