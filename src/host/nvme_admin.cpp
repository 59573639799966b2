#include "host/nvme_admin.hpp"

#include <cassert>
#include <cstring>

namespace snacc::host {

namespace {

constexpr std::uint16_t kEntries = 16;

Payload u32_payload(std::uint32_t v) {
  std::vector<std::byte> raw(4);
  std::memcpy(raw.data(), &v, 4);
  return Payload::bytes(std::move(raw));
}

Payload u64_payload(std::uint64_t v) {
  std::vector<std::byte> raw(8);
  std::memcpy(raw.data(), &v, 8);
  return Payload::bytes(std::move(raw));
}

}  // namespace

NvmeAdmin::NvmeAdmin(sim::Simulator& sim, pcie::Fabric& fabric,
                     pcie::HostMemory& host_mem, pcie::Addr host_window_base,
                     nvme::Ssd& ssd, Bytes region_local)
    : sim_(sim),
      fabric_(fabric),
      host_mem_(host_mem),
      host_window_base_(host_window_base),
      ssd_(ssd),
      region_(region_local),
      sq_(nvme::QueueConfig{0, host_window_base + region_local, kEntries}),
      cq_(nvme::QueueConfig{
          0, host_window_base + region_local + Bytes{kPageSize}, kEntries}) {}

sim::Task NvmeAdmin::bring_up() {
  const pcie::PortId root = fabric_.root_port();
  const pcie::Addr bar = ssd_.bar_base();
  co_await fabric_.write(root, bar + nvme::reg::kAsq,
                         u64_payload(sq_.config().base.value()));
  co_await fabric_.write(root, bar + nvme::reg::kAcq,
                         u64_payload(cq_.config().base.value()));
  const std::uint32_t aqa = (kEntries - 1) | ((kEntries - 1u) << 16);
  co_await fabric_.write(root, bar + nvme::reg::kAqa, u32_payload(aqa));
  co_await fabric_.write(root, bar + nvme::reg::kCc, u32_payload(1));
  while (true) {
    auto rr = co_await fabric_.read(root, bar + nvme::reg::kCsts, Bytes{4});
    std::uint32_t csts = 0;
    if (rr.data.has_data()) std::memcpy(&csts, rr.data.view().data(), 4);
    if (csts & 1) co_return;
    co_await sim_.delay(us(10));
  }
}

sim::TaskOf<nvme::IdentifyController> NvmeAdmin::identify() {
  nvme::SubmissionEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  sqe.prp1 = host_window_base_ + region_ + Bytes{2 * kPageSize};
  sqe.cdw10 = 1;
  [[maybe_unused]] const nvme::Status st = co_await command(sqe);
  assert(st == nvme::Status::kSuccess);
  co_return nvme::IdentifyController::decode(
      host_mem_.store().read(region_.value() + 2 * kPageSize, kPageSize));
}

sim::TaskOf<nvme::Status> NvmeAdmin::create_io_queues(std::uint16_t qid,
                                                      pcie::Addr sq_base,
                                                      pcie::Addr cq_base,
                                                      std::uint16_t entries) {
  nvme::SubmissionEntry create_cq;
  create_cq.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoCq);
  create_cq.prp1 = cq_base;
  create_cq.cdw10 = qid | (static_cast<std::uint32_t>(entries - 1) << 16);
  create_cq.cdw11 = 1;
  const nvme::Status st = co_await command(create_cq);
  if (st != nvme::Status::kSuccess) co_return st;

  nvme::SubmissionEntry create_sq;
  create_sq.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
  create_sq.prp1 = sq_base;
  create_sq.cdw10 = qid | (static_cast<std::uint32_t>(entries - 1) << 16);
  create_sq.cdw11 = (static_cast<std::uint32_t>(qid) << 16) | 1;
  co_return co_await command(create_sq);
}

sim::TaskOf<nvme::Status> NvmeAdmin::command(nvme::SubmissionEntry sqe) {
  sqe.cid = Cid{next_cid_++};
  auto raw = sqe.encode();
  host_mem_.store().write((sq_.next_slot_addr() - host_window_base_).value(),
                          Payload::bytes({raw.begin(), raw.end()}));
  const std::uint16_t tail = sq_.advance_tail();
  co_await fabric_.write(fabric_.root_port(),
                         ssd_.bar_base() + nvme::reg::Doorbell::sq_tail(0),
                         u32_payload(tail));
  while (true) {
    Payload raw_cqe = host_mem_.store().read(
        (cq_.head_addr() - host_window_base_).value(), nvme::kCqeSize);
    if (raw_cqe.has_data()) {
      auto cqe = nvme::CompletionEntry::decode(raw_cqe.view());
      if (cq_.is_new(cqe) && cqe.cid == sqe.cid) {
        sq_.update_head(cqe.sq_head);
        const std::uint16_t head = cq_.advance();
        co_await fabric_.write(
            fabric_.root_port(),
            ssd_.bar_base() + nvme::reg::Doorbell::cq_head(0),
            u32_payload(head));
        co_return cqe.status;
      }
    }
    co_await sim_.delay(us(1));
  }
}

}  // namespace snacc::host
