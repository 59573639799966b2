// StorageClient: the narrow device-access surface the durability tier is
// written against (docs/DURABILITY.md). PeClient implements it over one
// streamer; ReplicatedClient implements it over N replicas. KvStore and the
// benches only ever see this interface, so a single-device store and a
// 3-way replicated store are the same code path.
#pragma once

#include "common/payload.hpp"
#include "common/units.hpp"
#include "sim/task.hpp"

namespace snacc::core {

class StorageClient {
 public:
  virtual ~StorageClient() = default;

  /// Reads [addr, addr+len) device bytes. `ok` is false on unrecoverable
  /// data loss (the data is then placeholder bytes).
  virtual sim::TaskOf<ReadResult> read(Bytes addr, Bytes len) = 0;

  /// Writes `data` to block-aligned device byte address `addr` and waits
  /// for acknowledgment; true on success. Acknowledged data may still sit
  /// in a volatile device cache -- it is durable only once a later flush()
  /// succeeds.
  virtual sim::TaskOf<bool> write(Bytes addr, Payload data) = 0;

  /// Durability barrier: destages every previously acknowledged write;
  /// true on success.
  virtual sim::TaskOf<bool> flush() = 0;
};

}  // namespace snacc::core
