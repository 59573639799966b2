#include "nvme/prp.hpp"

#include <cstring>

namespace snacc::nvme {

std::vector<std::vector<std::uint64_t>> build_prp_lists(
    BusAddr buffer_base, Bytes len, BusAddr list_page_base) {
  std::vector<std::vector<std::uint64_t>> lists;
  const std::uint64_t pages = prp_page_count(len);
  if (pages <= 2) return lists;  // direct PRP1/PRP2, no list needed

  // Entries for pages [1, pages): page 0 is PRP1. Each list page holds up to
  // 512 entries, but when more remain, the last slot chains to the next list.
  std::uint64_t next_page = 1;
  BusAddr list_addr = list_page_base;
  while (next_page < pages) {
    std::vector<std::uint64_t> list;
    const std::uint64_t remaining = pages - next_page;
    const bool needs_chain = remaining > kPrpEntriesPerList;
    const std::uint64_t take =
        needs_chain ? kPrpEntriesPerList - 1 : remaining;
    for (std::uint64_t i = 0; i < take; ++i) {
      list.push_back((buffer_base + Bytes{(next_page + i) * kPageSize}).value());
    }
    next_page += take;
    if (needs_chain) {
      list_addr += Bytes{kPageSize};
      list.push_back(list_addr.value());  // chain pointer in the final slot
    }
    lists.push_back(std::move(list));
  }
  return lists;
}

namespace {

/// Entry `slot` of a fetched list page (zero where the page has no bytes).
std::uint64_t list_entry(const Payload& page, std::uint64_t slot) {
  std::uint64_t v = 0;
  if (page.has_data() && page.size() >= (slot + 1) * 8) {
    std::memcpy(&v, page.view().data() + slot * 8, 8);
  }
  return v;
}

}  // namespace

sim::TaskOf<std::vector<BusAddr>> PrpWalker::walk(BusAddr prp1, BusAddr prp2,
                                                  Bytes len) const {
  const std::uint64_t pages = prp_page_count(len);
  std::vector<BusAddr> out;
  out.reserve(pages);
  if (pages == 0) co_return out;

  out.push_back(prp1);
  if (pages == 1) co_return out;
  if (pages == 2) {
    out.push_back(prp2);
    co_return out;
  }

  // PRP2 points into a list page. The controller bursts each list page in
  // one read and takes the entries from it.
  BusAddr list = prp2;
  while (out.size() < pages) {
    const ReadResult page = co_await reader_(page_base(list));
    for (std::uint64_t slot = page_offset(list).value() / 8;; ++slot) {
      const BusAddr entry{list_entry(page.data, slot)};
      if (slot == kPrpEntriesPerList - 1 && out.size() + 1 < pages) {
        list = entry;  // chain pointer to the next list page
        break;
      }
      out.push_back(entry);
      if (out.size() == pages) break;
    }
  }
  co_return out;
}

}  // namespace snacc::nvme
