#include "nvme/prp.hpp"

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

sim::TaskOf<std::vector<BusAddr>> PrpWalker::walk(BusAddr prp1, BusAddr prp2,
                                                  Bytes len) {
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

  // PRP2 points to a list page. Fetch entries one by one (the controller
  // actually bursts these; the burst is modeled by the reader's rate
  // charging, see Ssd::read_prp_entry).
  BusAddr list_base = prp2;
  std::uint64_t index_in_list = 0;
  while (out.size() < pages) {
    const BusAddr entry_addr = list_base + Bytes{index_in_list * 8};
    const std::uint64_t entry = co_await reader_(entry_addr);
    const bool last_slot = index_in_list == kPrpEntriesPerList - 1;
    const bool more_needed = out.size() < pages;
    if (last_slot && more_needed && out.size() + 1 < pages) {
      // Chain pointer to the next list page.
      list_base = BusAddr{entry};
      index_in_list = 0;
      continue;
    }
    out.push_back(BusAddr{entry});
    ++index_in_list;
  }
  co_return out;
}

}  // namespace snacc::nvme
