// Layout invariants across size sweeps: every algorithm's shared-memory
// regions must be disjoint, correctly sized, and consistent with the
// structural helpers the state machines rely on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"
#include "writeall/algv.hpp"
#include "writeall/algw.hpp"
#include "writeall/algx.hpp"
#include "writeall/combined.hpp"

namespace rfsp {
namespace {

class LayoutSweep : public ::testing::TestWithParam<Addr> {};

TEST_P(LayoutSweep, XRegionsDisjointAndComplete) {
  const Addr n = GetParam();
  const Pid p = static_cast<Pid>(n / 2 + 1);
  const XLayout x(/*x_base=*/10, /*aux_base=*/10 + n, n, p);
  // d heap directly after x, w directly after d, end exact.
  EXPECT_EQ(x.d(1), 10 + n);
  EXPECT_EQ(x.d(2 * x.n_pad - 1), 10 + n + 2 * x.n_pad - 2);
  EXPECT_EQ(x.w(0), 10 + n + 2 * x.n_pad - 1);
  EXPECT_EQ(x.aux_end(), x.w(0) + p);
  // Leaves cover exactly [0, n_pad); real elements below n.
  EXPECT_EQ(x.first_element(x.leaf(0)), 0u);
  EXPECT_EQ(x.first_element(x.leaf(x.n_pad - 1)), x.n_pad - 1);
  // The root covers everything.
  EXPECT_EQ(x.elements_below(1), x.n_pad);
  EXPECT_FALSE(x.structurally_done(1));
}

TEST_P(LayoutSweep, VTreeCoversExactlyTheArray) {
  const Addr n = GetParam();
  const VLayout v(0, n, n, 1, 0);
  EXPECT_GE(v.leaves_real * v.elems_per_leaf, n);
  EXPECT_LT((v.leaves_real - 1) * v.elems_per_leaf, n);
  EXPECT_TRUE(is_pow2(v.leaves));
  EXPECT_GE(v.leaves, v.leaves_real);
  // Sum of real leaves over the two root children equals the total.
  if (v.depth >= 1) {
    EXPECT_EQ(v.real_leaves_below(2) + v.real_leaves_below(3),
              v.leaves_real);
  }
  EXPECT_EQ(v.real_leaves_below(1), v.leaves_real);
  // Phase lengths compose into the iteration.
  EXPECT_EQ(v.iteration, v.phase_alloc + v.phase_work + v.phase_update);
}

TEST_P(LayoutSweep, CombinedSubLayoutsShareXArrayOnly) {
  const Addr n = GetParam();
  const Pid p = static_cast<Pid>(n < 3 ? n : n / 3);
  const CombinedLayout c(0, n, n, std::max<Pid>(p, 1), 0);
  // done flag sits between the x array and V's tree; X's aux starts after
  // V's and nothing overlaps.
  EXPECT_EQ(c.done, n);
  EXPECT_EQ(c.v.c_base, n + 1);
  EXPECT_GE(c.x.d_base, c.v.aux_end());
  EXPECT_EQ(c.v.x_base, c.x.x_base);
  EXPECT_GT(c.aux_end(), c.x.d_base);
}

TEST_P(LayoutSweep, WCountingTreeAfterProgressTree) {
  const Addr n = GetParam();
  const Pid p = static_cast<Pid>(n / 2 + 1);
  const WLayout w(0, n, n, p);
  EXPECT_GE(w.cnt_base, w.progress.aux_end());
  EXPECT_TRUE(is_pow2(w.p_pad));
  EXPECT_GE(w.p_pad, p);
  EXPECT_EQ(w.cnt_leaf(0), static_cast<Addr>(w.p_pad));
  EXPECT_EQ(w.aux_end(), w.cnt(2 * static_cast<Addr>(w.p_pad) - 1) + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LayoutSweep,
                         ::testing::Values<Addr>(1, 2, 3, 5, 8, 13, 16, 33,
                                                 100, 257, 1024, 4097),
                         [](const ::testing::TestParamInfo<Addr>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(LayoutSweep, SimLayoutRegionsNestWithoutOverlap) {
  for (const Addr n : {Addr{1}, Addr{7}, Addr{64}, Addr{333}}) {
    std::vector<Word> input(n, 1);
    PrefixSumProgram program(input);
    const SimLayout layout(program, static_cast<Pid>(n));
    EXPECT_EQ(layout.regs, layout.data + layout.data_cells);
    EXPECT_GE(layout.scratch, layout.regs);
    EXPECT_EQ(layout.phase,
              layout.scratch +
                  static_cast<Addr>(layout.n) * layout.scratch_stride);
    EXPECT_GT(layout.total, layout.phase);
    // Scratch stride holds the count plus max_writes (addr, value) pairs.
    EXPECT_EQ(layout.scratch_stride, 1 + 2 * layout.max_writes);
  }
}

TEST(LayoutSweep, XElementRangesPartitionTheTree) {
  // For every interior node, children's element ranges partition the
  // parent's — the invariant the descent logic relies on.
  const XLayout x(0, 64, 64, 8);
  for (Addr node = 1; node < x.n_pad; ++node) {
    EXPECT_EQ(x.first_element(2 * node), x.first_element(node));
    EXPECT_EQ(x.first_element(2 * node + 1),
              x.first_element(node) + x.elements_below(node) / 2);
    EXPECT_EQ(x.elements_below(2 * node) + x.elements_below(2 * node + 1),
              x.elements_below(node));
  }
}

// --- Tree navigation (TreeNav) ------------------------------------------------

TEST(TreeNav, HeapOrderIsTheIdentity) {
  for (Addr node = 1; node < (Addr{1} << 12); ++node) {
    ASSERT_EQ(TreeNav::pos(node), node - 1) << "node=" << node;
  }
}

TEST(TreeNav, RootAndLogicalHelpersAreOrderIndependent) {
  EXPECT_EQ(TreeNav::parent(6), 3u);
  EXPECT_EQ(TreeNav::left(3), 6u);
  EXPECT_EQ(TreeNav::right(3), 7u);
  EXPECT_EQ(TreeNav::ancestor(13, 2), 3u);
  // The root maps to cell 0, so the goal-cell addresses the progress-tree
  // algorithms publish sit at the start of their trees.
  EXPECT_EQ(TreeNav::pos(TreeNav::root()), 0u);
}

}  // namespace
}  // namespace rfsp
