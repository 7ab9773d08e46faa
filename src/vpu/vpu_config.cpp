#include "vpu/vpu_config.h"

#include <cstdio>
#include <stdexcept>

namespace vlacnn {

void validate(const VpuConfig& config) {
  const std::uint32_t v = config.vlen_bits;
  if (v < 128 || v > kMaxVlenBits || (v & (v - 1)) != 0) {
    throw std::invalid_argument("vpu: vlen must be a power of two in [128, 16384]");
  }
  if (config.lanes == 0 || config.lanes > 64) {
    throw std::invalid_argument("vpu: lanes must be in [1, 64]");
  }
}

std::string point_label(const std::string& head, const char* algo,
                        std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                        std::uint32_t lanes, VpuAttach attach) {
  return head + "/" + algo + "/vlen" + std::to_string(vlen_bits) + "/l2:" +
         std::to_string(l2_bytes) + "/lanes" + std::to_string(lanes) + "/" +
         to_string(attach);
}

std::string layer_head(const std::string& net, int layer) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "L%02d", layer);
  return net + "/" + buf;
}

}  // namespace vlacnn
