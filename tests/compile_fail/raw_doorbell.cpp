// Must not compile: the doorbell base is private to nvme::reg::Doorbell, so
// code outside spec.hpp cannot do its own doorbell-offset arithmetic.
#include "nvme/spec.hpp"

snacc::Bytes raw_sq_tail(std::uint16_t qid) {
  return snacc::nvme::reg::Doorbell::kBase + snacc::Bytes{16ull * qid};
}
