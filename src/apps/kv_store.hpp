// A log-structured key-value store on top of the SNAcc streamer -- the
// "network accessible database" workload the paper's introduction motivates,
// hardened into the durability tier's write-ahead log (docs/DURABILITY.md).
//
// Region layout: the store owns [region_base, region_base + region_capacity)
// device bytes. The first two blocks are a dual-slot *superblock* (ping-pong
// by generation parity) naming the active log extent; the default log --
// before any compaction ever committed a superblock -- starts right after
// it. Each log record is a 4 kB header block (magic, sequence, generation,
// key/value lengths, value CRC-32C, header CRC-32C, key bytes) followed by
// the value, padded to the block size.
//
// Durability contract: put() appends and indexes but the record may still
// sit in the device's volatile write cache; commit() issues a flush barrier
// (group commit -- one barrier covers every put since the last). recover()
// rebuilds the index by scanning the active generation's log, verifying
// header and value checksums, and *truncating* at the first torn or corrupt
// record, so a power loss mid-put never resurrects garbage. compact() copies
// live records into a fresh generation and switches over with a journaled
// superblock write: recovery sees the old log or the new one, never a mix.
//
// All storage I/O goes through a StorageClient -- a PeClient over one
// streamer, or a ReplicatedClient mirroring N devices.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "snacc/pe_client.hpp"
#include "snacc/storage_client.hpp"

namespace snacc::apps {

/// put() outcome. Everything except kOk leaves the store unchanged, except
/// kIoError, which wedges the store (an unreadable hole in the log would
/// silently truncate every later record at recovery).
enum class PutStatus : std::uint8_t {
  kOk = 0,
  kOversizedKey,
  kLogFull,
  kIoError,
};

const char* put_status_name(PutStatus s);

class KvStore {
 public:
  static constexpr std::uint64_t kHeaderBytes = 4 * KiB;
  static constexpr std::uint64_t kMagic = 0x4B56'4C4F'47'32ull;   // "KVLOG2"
  static constexpr std::uint64_t kSuperMagic = 0x4B56'5355'5032ull;  // "KVSUP2"
  /// Two superblock slots ahead of the default log area.
  static constexpr std::uint64_t kSuperBytes = 2 * 4 * KiB;
  static constexpr std::uint64_t kMaxKeyBytes = 3 * KiB;

  /// `region_base`/`region_capacity`: device byte range owned by this store
  /// (superblock slots + log). Storage I/O goes through `client`.
  KvStore(core::StorageClient& client, Bytes region_base,
          Bytes region_capacity);
  /// Convenience: single-device store owning its PeClient.
  KvStore(core::NvmeStreamer& streamer, Bytes region_base,
          Bytes region_capacity);

  /// Appends key/value to the log and indexes it. The record is volatile
  /// until the next successful commit().
  sim::TaskOf<PutStatus> put(std::string key, Payload value);

  /// Group commit: flush barrier covering every put acknowledged so far;
  /// true on success.
  sim::TaskOf<bool> commit();

  /// Looks the key up (latest version wins). `ok` is false when the key is
  /// absent or its value could not be read back.
  sim::TaskOf<ReadResult> get(const std::string& key);

  /// Rebuilds the index by reading the superblock and scanning the active
  /// log (e.g. after power loss): checksum-verifies every record and
  /// truncates the log at the first invalid one. Returns the number of
  /// records recovered.
  sim::TaskOf<std::uint64_t> recover();

  /// Log compaction: copies only the *live* version of every key into a
  /// fresh-generation log at `scratch_base` (must not overlap the current
  /// log), flushes it, journals the switch-over through the superblock,
  /// flushes again, and only then adopts the new log. Returns the bytes
  /// reclaimed once the switch-over committed, nullopt when it did not (the
  /// old log then stays authoritative).
  sim::TaskOf<std::optional<Bytes>> compact(Bytes scratch_base,
                                            Bytes scratch_capacity);

  std::uint64_t entries() const { return index_.size(); }
  Bytes log_bytes_used() const { return head_ - base_; }
  std::uint64_t generation() const { return generation_; }
  std::uint64_t puts() const { return puts_; }
  std::uint64_t gets() const { return gets_; }
  std::uint64_t commits() const { return commits_; }
  /// Records dropped by recover() truncation over the store's lifetime.
  std::uint64_t truncated_records() const { return truncated_records_; }

  static Bytes record_span(Bytes value_bytes) {
    return Bytes{kHeaderBytes} + page_align_up(value_bytes);
  }

 private:
  struct Entry {
    Bytes record_addr;
    Bytes value_bytes;
  };

  Payload make_header(const std::string& key, Bytes value_bytes,
                      std::uint64_t sequence, std::uint64_t generation,
                      const Payload& value) const;
  struct ParsedHeader {
    std::string key;
    std::uint64_t value_bytes = 0;
    std::uint64_t sequence = 0;
    std::uint64_t generation = 0;
    std::uint32_t value_crc = 0;
    bool value_has_crc = false;
  };
  static bool parse_header(const Payload& header, ParsedHeader* out);

  Payload make_superblock(std::uint64_t generation, Bytes log_base,
                          Bytes log_capacity) const;
  static bool parse_superblock(const Payload& block, std::uint64_t* generation,
                               Bytes* log_base, Bytes* log_capacity);
  Bytes super_slot_addr(std::uint64_t generation) const {
    return region_base_ + Bytes{(generation % 2) * (4 * KiB)};
  }

  std::unique_ptr<core::PeClient> owned_pe_;  // convenience-ctor ownership
  core::StorageClient* client_;
  Bytes region_base_;
  Bytes region_capacity_;
  Bytes base_;      // active log base
  Bytes capacity_;  // active log capacity
  Bytes head_;
  std::uint64_t generation_ = 0;
  std::uint64_t sequence_ = 0;
  bool wedged_ = false;  // a put hit an I/O error; the log has a hole
  // Keyed lookups on the hot path; compact() sorts the keys before walking
  // so the rewritten log layout is deterministic.
  std::unordered_map<std::string, Entry> index_;
  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t truncated_records_ = 0;
};

}  // namespace snacc::apps
