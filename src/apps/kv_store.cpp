#include "apps/kv_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc.hpp"

namespace snacc::apps {

namespace {

// Record header field offsets (all little-endian, 4 kB block).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffSeq = 8;
constexpr std::size_t kOffGen = 16;
constexpr std::size_t kOffKeyLen = 24;
constexpr std::size_t kOffValueLen = 32;
constexpr std::size_t kOffValueCrc = 40;
constexpr std::size_t kOffFlags = 44;
constexpr std::size_t kOffHeaderCrc = 48;
constexpr std::size_t kOffKey = 52;

/// Real value bytes were checksummed; phantom (size-only) payloads carry no
/// bits to sum, a model limitation recovery has to live with.
constexpr std::uint32_t kFlagValueHasCrc = 1u << 0;

std::uint32_t header_crc_over(std::span<const std::byte> raw,
                              std::uint64_t key_len) {
  // CRC over [0, kOffKey + key_len) with the header_crc field zeroed: chain
  // around the 4-byte hole instead of copying the block.
  constexpr std::byte kZeros[4] = {};
  std::uint32_t crc = crc32c(raw.subspan(0, kOffHeaderCrc));
  crc = crc32c(std::span<const std::byte>(kZeros, 4), crc);
  return crc32c(raw.subspan(kOffKey, key_len), crc);
}

}  // namespace

const char* put_status_name(PutStatus s) {
  switch (s) {
    case PutStatus::kOk:
      return "ok";
    case PutStatus::kOversizedKey:
      return "oversized-key";
    case PutStatus::kLogFull:
      return "log-full";
    case PutStatus::kIoError:
      return "io-error";
  }
  return "?";
}

KvStore::KvStore(core::StorageClient& client, Bytes region_base,
                 Bytes region_capacity)
    : client_(&client),
      region_base_(region_base),
      region_capacity_(region_capacity),
      base_(region_base + Bytes{kSuperBytes}),
      capacity_(region_capacity - Bytes{kSuperBytes}),
      head_(base_) {}

KvStore::KvStore(core::NvmeStreamer& streamer, Bytes region_base,
                 Bytes region_capacity)
    : owned_pe_(std::make_unique<core::PeClient>(streamer)),
      client_(owned_pe_.get()),
      region_base_(region_base),
      region_capacity_(region_capacity),
      base_(region_base + Bytes{kSuperBytes}),
      capacity_(region_capacity - Bytes{kSuperBytes}),
      head_(base_) {}

Payload KvStore::make_header(const std::string& key, Bytes value_bytes,
                             std::uint64_t sequence, std::uint64_t generation,
                             const Payload& value) const {
  std::vector<std::byte> raw(kHeaderBytes, std::byte{0});
  const std::uint64_t key_len = key.size();
  // snacc-lint: allow(value-escape): record header wire encoding
  const std::uint64_t vb = value_bytes.value();
  const std::uint32_t value_crc = value.has_data() ? crc32c(value.view()) : 0;
  const std::uint32_t flags = value.has_data() ? kFlagValueHasCrc : 0;
  std::memcpy(raw.data() + kOffMagic, &kMagic, 8);
  std::memcpy(raw.data() + kOffSeq, &sequence, 8);
  std::memcpy(raw.data() + kOffGen, &generation, 8);
  std::memcpy(raw.data() + kOffKeyLen, &key_len, 8);
  std::memcpy(raw.data() + kOffValueLen, &vb, 8);
  std::memcpy(raw.data() + kOffValueCrc, &value_crc, 4);
  std::memcpy(raw.data() + kOffFlags, &flags, 4);
  std::memcpy(raw.data() + kOffKey, key.data(), key.size());
  const std::uint32_t hcrc = header_crc_over(raw, key_len);
  std::memcpy(raw.data() + kOffHeaderCrc, &hcrc, 4);
  return Payload::bytes(std::move(raw));
}

bool KvStore::parse_header(const Payload& header, ParsedHeader* out) {
  if (!header.has_data() || header.size() < kHeaderBytes) return false;
  auto v = header.view();
  std::uint64_t magic = 0;
  std::memcpy(&magic, v.data() + kOffMagic, 8);
  if (magic != kMagic) return false;
  std::uint64_t key_len = 0;
  std::memcpy(&out->sequence, v.data() + kOffSeq, 8);
  std::memcpy(&out->generation, v.data() + kOffGen, 8);
  std::memcpy(&key_len, v.data() + kOffKeyLen, 8);
  std::memcpy(&out->value_bytes, v.data() + kOffValueLen, 8);
  std::memcpy(&out->value_crc, v.data() + kOffValueCrc, 4);
  std::uint32_t flags = 0;
  std::memcpy(&flags, v.data() + kOffFlags, 4);
  out->value_has_crc = (flags & kFlagValueHasCrc) != 0;
  if (key_len > kMaxKeyBytes || kOffKey + key_len > v.size()) return false;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, v.data() + kOffHeaderCrc, 4);
  if (stored_crc != header_crc_over(v, key_len)) return false;  // torn header
  out->key.assign(reinterpret_cast<const char*>(v.data() + kOffKey), key_len);
  return true;
}

Payload KvStore::make_superblock(std::uint64_t generation, Bytes log_base,
                                 Bytes log_capacity) const {
  std::vector<std::byte> raw(4 * KiB, std::byte{0});
  // snacc-lint: allow(value-escape): superblock wire encoding
  const std::uint64_t lb = log_base.value();
  // snacc-lint: allow(value-escape): superblock wire encoding
  const std::uint64_t lc = log_capacity.value();
  std::memcpy(raw.data() + 0, &kSuperMagic, 8);
  std::memcpy(raw.data() + 8, &generation, 8);
  std::memcpy(raw.data() + 16, &lb, 8);
  std::memcpy(raw.data() + 24, &lc, 8);
  const std::uint32_t crc =
      crc32c(std::span<const std::byte>(raw.data(), 32));
  std::memcpy(raw.data() + 32, &crc, 4);
  return Payload::bytes(std::move(raw));
}

bool KvStore::parse_superblock(const Payload& block, std::uint64_t* generation,
                               Bytes* log_base, Bytes* log_capacity) {
  if (!block.has_data() || block.size() < 36) return false;
  auto v = block.view();
  std::uint64_t magic = 0;
  std::memcpy(&magic, v.data(), 8);
  if (magic != kSuperMagic) return false;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, v.data() + 32, 4);
  if (stored_crc != crc32c(v.subspan(0, 32))) return false;
  std::uint64_t lb = 0;
  std::uint64_t lc = 0;
  std::memcpy(generation, v.data() + 8, 8);
  std::memcpy(&lb, v.data() + 16, 8);
  std::memcpy(&lc, v.data() + 24, 8);
  *log_base = Bytes{lb};
  *log_capacity = Bytes{lc};
  return true;
}

sim::TaskOf<PutStatus> KvStore::put(std::string key, Payload value) {
  PutStatus st = PutStatus::kOk;
  if (wedged_) {
    st = PutStatus::kIoError;
  } else if (key.size() > kMaxKeyBytes) {
    st = PutStatus::kOversizedKey;
  } else if (head_ + record_span(Bytes{value.size()}) > base_ + capacity_) {
    st = PutStatus::kLogFull;
  }
  if (st != PutStatus::kOk) co_return st;
  const Bytes span = record_span(Bytes{value.size()});
  // Reserve the extent and sequence before suspending so pipelined puts
  // from concurrent tasks never collide.
  const Bytes addr = head_;
  head_ += span;
  const std::uint64_t seq = sequence_++;
  const Bytes value_bytes{value.size()};
  Payload record = Payload::concat(
      make_header(key, value_bytes, seq, generation_, value), std::move(value));
  if (!co_await client_->write(addr, std::move(record))) {
    // The record may have partially landed: an unverifiable hole that would
    // truncate every later record at recovery. Wedge the store.
    wedged_ = true;
    co_return PutStatus::kIoError;
  }
  index_[std::move(key)] = Entry{addr, value_bytes};
  ++puts_;
  co_return PutStatus::kOk;
}

sim::TaskOf<bool> KvStore::commit() {
  // Group commit: one device flush barrier makes every previously
  // acknowledged put durable at once. put() awaits its write response
  // before returning, so everything a caller has seen acknowledged is
  // covered by this barrier.
  const bool flushed = co_await client_->flush();
  ++commits_;
  co_return flushed && !wedged_;
}

sim::TaskOf<ReadResult> KvStore::get(const std::string& key) {
  ++gets_;
  auto it = index_.find(key);
  if (it == index_.end()) co_return ReadResult{Payload{}, false};
  co_return co_await client_->read(
      it->second.record_addr + Bytes{kHeaderBytes}, it->second.value_bytes);
}

sim::TaskOf<std::optional<Bytes>> KvStore::compact(Bytes scratch_base,
                                                   Bytes scratch_capacity) {
  const Bytes before = log_bytes_used();
  const std::uint64_t new_gen = generation_ + 1;
  Bytes new_head = scratch_base;
  std::uint64_t new_seq = 0;
  std::unordered_map<std::string, Entry> new_index;
  // Stream every live record to the scratch log. Device-to-device copy goes
  // through the PE (read stream in, write stream out), so compaction runs on
  // the FPGA path like everything else. Walk the keys in sorted order: the
  // index is an unordered_map, and letting hash-iteration order decide the
  // rewritten log layout would make post-compaction timing and on-device
  // placement nondeterministic.
  std::vector<const std::string*> keys;
  keys.reserve(index_.size());
  for (const auto& [key, entry] : index_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* kp : keys) {
    const std::string& key = *kp;
    const Entry& entry = index_.at(key);
    ReadResult value = co_await client_->read(
        entry.record_addr + Bytes{kHeaderBytes}, entry.value_bytes);
    // Source unreadable: abort, keep the old log.
    if (!value.ok) co_return std::nullopt;
    const Bytes span = record_span(entry.value_bytes);
    // Scratch too small: abort without switching over.
    if (new_head + span > scratch_base + scratch_capacity) {
      co_return std::nullopt;
    }
    Payload record = Payload::concat(
        make_header(key, entry.value_bytes, new_seq, new_gen, value.data),
        std::move(value.data));
    // Scratch log has a hole: abort.
    if (!co_await client_->write(new_head, std::move(record))) {
      co_return std::nullopt;
    }
    new_index[key] = Entry{new_head, entry.value_bytes};
    new_head += span;
    ++new_seq;
  }
  // Journaled switch-over: (1) the whole scratch log becomes durable, (2)
  // the superblock naming it is written to the inactive ping-pong slot, (3)
  // the superblock becomes durable. A crash anywhere in between leaves
  // recovery a fully-old or fully-new view, never a mix.
  if (!co_await client_->flush()) co_return std::nullopt;
  if (!co_await client_->write(
          super_slot_addr(new_gen),
          make_superblock(new_gen, scratch_base, scratch_capacity))) {
    co_return std::nullopt;
  }
  if (!co_await client_->flush()) co_return std::nullopt;
  generation_ = new_gen;
  base_ = scratch_base;
  capacity_ = scratch_capacity;
  head_ = new_head;
  sequence_ = new_seq;
  index_ = std::move(new_index);
  co_return before - log_bytes_used();
}

sim::TaskOf<std::uint64_t> KvStore::recover() {
  index_.clear();
  wedged_ = false;
  // Superblock election: both ping-pong slots are read, the valid one with
  // the highest generation names the active log; a store that never
  // compacted has no superblock and uses the default log after the slots.
  generation_ = 0;
  base_ = region_base_ + Bytes{kSuperBytes};
  capacity_ = region_capacity_ - Bytes{kSuperBytes};
  bool have_super = false;
  for (int slot = 0; slot < 2; ++slot) {
    const ReadResult block = co_await client_->read(
        region_base_ + Bytes{slot * (4 * KiB)}, Bytes{4 * KiB});
    if (!block.ok) continue;
    std::uint64_t gen = 0;
    Bytes lb;
    Bytes lc;
    if (!parse_superblock(block.data, &gen, &lb, &lc)) continue;
    if (!have_super || gen > generation_) {
      generation_ = gen;
      base_ = lb;
      capacity_ = lc;
      have_super = true;
    }
  }
  head_ = base_;
  sequence_ = 0;
  std::uint64_t records = 0;
  std::uint64_t prev_seq = 0;
  while (head_ + Bytes{kHeaderBytes} <= base_ + capacity_) {
    const ReadResult header =
        co_await client_->read(head_, Bytes{kHeaderBytes});
    if (!header.ok) break;
    ParsedHeader h;
    if (!parse_header(header.data, &h)) break;  // log end or torn header
    // A record from another generation or out of sequence is stale debris
    // (e.g. a pre-compaction log under a reused extent): truncate here.
    if (h.generation != generation_ ||
        (records > 0 && h.sequence <= prev_seq)) {
      ++truncated_records_;
      break;
    }
    const Bytes span = record_span(Bytes{h.value_bytes});
    if (head_ + span > base_ + capacity_) {
      ++truncated_records_;
      break;
    }
    if (h.value_has_crc && h.value_bytes > 0) {
      // The value read *is* the recovery cost the ablation measures: every
      // recovered record's bytes come back over the device path.
      const ReadResult value = co_await client_->read(
          head_ + Bytes{kHeaderBytes}, Bytes{h.value_bytes});
      if (!value.ok || !value.data.has_data() ||
          crc32c(value.data.view()) != h.value_crc) {
        ++truncated_records_;  // torn value: the put never fully landed
        break;
      }
    }
    index_[std::move(h.key)] = Entry{head_, Bytes{h.value_bytes}};
    head_ += span;
    prev_seq = h.sequence;
    sequence_ = h.sequence + 1;
    ++records;
  }
  co_return records;
}

}  // namespace snacc::apps
