// Ready-made fabric targets: a host-DRAM window and an adapter exposing an
// FPGA memory model (on-board DRAM or HBM) as a BAR target. Both serve a
// transaction inside the fabric's own task: the fabric awaits mem_read /
// mem_write directly, so serving costs no event beyond the memory's timing.
#pragma once

#include <memory>
#include <utility>

#include "mem/sparse_memory.hpp"
#include "pcie/fabric.hpp"

namespace snacc::pcie {

/// Host DRAM as seen from the PCIe fabric (DMA to/from pinned buffers).
/// Service time: DDR4 channel bandwidth plus a fixed access latency; the
/// root-complex traversal is already charged by the fabric.
class HostMemory final : public Target {
 public:
  // Backing-store capacities stay raw by convention: the mem layer is below
  // the typed domain boundary.  snacc-lint: allow(bare-uint-signature)
  HostMemory(sim::Simulator& sim, std::uint64_t size, double dram_gb_s = 38.0,
             TimePs access_latency = ns(95))
      : sim_(sim), store_(size), bus_(sim, dram_gb_s), latency_(access_latency) {}

  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override {
    // Access latency pipelines with other requests; only the data transfer
    // occupies the channel.
    co_await bus_.acquire(len.value());
    co_await sim_.delay(latency_);
    co_return store_.read(local.value(), len.value());
  }

  sim::Task mem_write(Bytes local, Payload data) override {
    co_await bus_.acquire(data.size());
    co_await sim_.delay(latency_);
    store_.write(local.value(), data);
  }

  mem::SparseMemory& store() { return store_; }

 private:
  sim::Simulator& sim_;
  mem::SparseMemory store_;
  sim::RateServer bus_;
  TimePs latency_;
};

/// Exposes an FPGA memory model -- mem::Dram or mem::Hbm -- as a fabric
/// Target (the on-board memory window in BAR2, Sec. 4.5).
template <class Memory>
class MemoryTarget final : public Target {
 public:
  explicit MemoryTarget(Memory& memory) : memory_(memory) {}

  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override {
    return memory_.read(local.value(), len.value());
  }
  sim::Task mem_write(Bytes local, Payload data) override {
    return memory_.write(local.value(), std::move(data));
  }

 private:
  Memory& memory_;
};

}  // namespace snacc::pcie
