#include "pram/soa.hpp"

#include <cstdlib>
#include <new>

#include "util/error.hpp"

namespace rfsp {

SoaStore::SoaStore(Pid processors, std::size_t registers,
                   std::uint32_t boot_ctrl)
    : p_(processors), registers_(registers) {
  RFSP_CHECK_MSG(p_ >= 1, "SoaStore needs at least one processor");
  const std::size_t words = registers_ * static_cast<std::size_t>(p_);
  if (words != 0) {
    regs_.reset(static_cast<Word*>(std::calloc(words, sizeof(Word))));
    if (!regs_) throw std::bad_alloc();
  }
  ctrl_.assign(p_, boot_ctrl);
}

// Default for Program::batch_kernels (declared in pram/program.hpp, where
// BatchKernel is only forward-declared): no kernels — the engine keeps the
// interpreter. Defined here so program.hpp needs no extra includes.
std::unique_ptr<BatchKernel> Program::batch_kernels() const {
  return nullptr;
}

}  // namespace rfsp
