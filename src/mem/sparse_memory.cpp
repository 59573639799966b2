#include "mem/sparse_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace snacc::mem {

void SparseMemory::write(std::uint64_t addr, const Payload& p) {
  assert(addr + p.size() <= size_ && "write out of memory bounds");
  bytes_written_ += p.size();
  if (!p.has_data()) {
    // Phantom write: drop any stale real contents in range so a later read
    // cannot return bytes that were never actually preserved.
    if (p.size() == 0) return;
    const std::uint64_t first = addr / kPageSize;
    const std::uint64_t last = (addr + p.size() - 1) / kPageSize;
    for (std::uint64_t pg = first; pg <= last && !pages_.empty(); ++pg) {
      pages_.erase(pg);
    }
    return;
  }
  std::uint64_t off = 0;
  while (off < p.size()) {
    const std::uint64_t a = addr + off;
    const std::uint64_t pg = a / kPageSize;
    const std::uint64_t in_page = a % kPageSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - in_page, p.size() - off);
    if (n == kPageSize) {
      pages_.insert_or_assign(pg, Page{p.slice(off, n), false});
    } else {
      write_part(pg, in_page, p.view().subspan(off, n));
    }
    off += n;
  }
}

void SparseMemory::write_part(std::uint64_t index, std::uint64_t in_page,
                              std::span<const std::byte> src) {
  auto [it, inserted] = pages_.try_emplace(index);
  Page& page = it->second;
  if (page.owned && page.bytes.use_count() == 1) {
    // This memory allocated these bytes and no Payload can see them.
    std::memcpy(const_cast<std::byte*>(page.bytes.view().data()) + in_page,
                src.data(), src.size());
    return;
  }
  page.bytes = Payload::build(kPageSize, [&](std::span<std::byte> out) {
    if (inserted) {
      std::memset(out.data(), 0, out.size());
    } else {
      std::memcpy(out.data(), page.bytes.view().data(), out.size());
    }
    std::memcpy(out.data() + in_page, src.data(), src.size());
  });
  page.owned = true;
}

Payload SparseMemory::read(std::uint64_t addr, std::uint64_t len) const {
  assert(addr + len <= size_ && "read out of memory bounds");
  bytes_read_ += len;
  if (len == 0) return Payload{};
  const std::uint64_t first = addr / kPageSize;
  const std::uint64_t last = (addr + len - 1) / kPageSize;
  const std::uint64_t in_first = addr % kPageSize;
  if (first == last) {
    auto it = pages_.find(first);
    if (it == pages_.end()) return Payload::phantom(len);
    return it->second.bytes.slice(in_first, len);
  }
  std::vector<Payload> parts;
  parts.reserve(last - first + 1);
  std::uint64_t off = 0;
  for (std::uint64_t pg = first; pg <= last; ++pg) {
    auto it = pages_.find(pg);
    if (it == pages_.end()) return Payload::phantom(len);
    const std::uint64_t in_page = pg == first ? in_first : 0;
    const std::uint64_t n = std::min<std::uint64_t>(kPageSize - in_page, len - off);
    parts.push_back(it->second.bytes.slice(in_page, n));
    off += n;
  }
  return Payload::gather(parts);
}

void SparseMemory::fill(std::uint64_t addr, std::uint64_t len, std::uint8_t value) {
  write(addr, Payload::filled(len, value));
}

}  // namespace snacc::mem
