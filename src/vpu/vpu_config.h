// Vector processing unit parameters (the co-design knobs of the papers) and the
// vsetvl semantics of the RISC-V "V" extension, which is what makes the kernels
// vector-length agnostic.
#pragma once

#include <cstdint>
#include <string>

#include "memsim/memory_system.h"

namespace vlacnn {

/// Maximum architecturally supported vector length (RVV spec; Paper I sweeps to
/// 16384-bit vectors).
inline constexpr std::uint32_t kMaxVlenBits = 16384;
inline constexpr std::uint32_t kElemBits = 32;  // fp32 throughout the papers
inline constexpr std::uint32_t kMaxVlElems = kMaxVlenBits / kElemBits;

struct VpuConfig {
  std::uint32_t vlen_bits = 512;
  std::uint32_t lanes = 8;
  VpuAttach attach = VpuAttach::kIntegratedL1;

  /// Maximum vector length in fp32 elements for this implementation.
  std::uint32_t mvl() const { return vlen_bits / kElemBits; }

  /// RVV vsetvl: granted vector length for a requested element count.
  std::uint64_t setvl(std::uint64_t requested) const {
    const std::uint64_t m = mvl();
    return requested < m ? requested : m;
  }
};

/// Validate a config (power-of-two vlen within range, lanes sane). Throws on error.
void validate(const VpuConfig& config);

/// A grid point's label, the one spelling of its identity shared by report
/// entry keys, kernel-profile blocks and their joins:
/// "<head>/<algo>/vlen<bits>/l2:<bytes>/lanes<n>/<attach>". `head` is
/// layer_head() for a network layer; a layer simulated outside a network
/// uses its shape string.
std::string point_label(const std::string& head, const char* algo,
                        std::uint32_t vlen_bits, std::uint64_t l2_bytes,
                        std::uint32_t lanes, VpuAttach attach);

/// "<net>/L<layer>", the layer zero-padded to two digits.
std::string layer_head(const std::string& net, int layer);

}  // namespace vlacnn
