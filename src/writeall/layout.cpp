#include "writeall/layout.hpp"

#include "util/error.hpp"

namespace rfsp {

void WriteAllConfig::validate() const {
  if (n < 1) throw ConfigError("Write-All needs n >= 1");
  if (p < 1) throw ConfigError("Write-All needs p >= 1");
  if (p > n) {
    // The paper's algorithms assume P <= N (Theorems 4.1/4.7 etc.); extra
    // processors add nothing Lemma 4.5 doesn't already bound.
    throw ConfigError("Write-All algorithms require p <= n");
  }
  if (stamp < 0 || stamp > kPayloadMask) {
    throw ConfigError("stamp must fit in 32 bits");
  }
}

WriteAllProgram::WriteAllProgram(WriteAllConfig config)
    : config_(config) {
  config_.validate();
}

bool WriteAllProgram::solved(const SharedMemory& mem) const {
  const Addr x = x_base();
  for (Addr i = 0; i < config_.n; ++i) {
    if (payload_of(mem.read(x + i), config_.stamp) == 0) return false;
  }
  return true;
}

}  // namespace rfsp
