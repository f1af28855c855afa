// The ten src/programs workloads at a fixed small size, for tests that must
// cover every simulated program (golden tallies, executor contracts). Same
// shapes as verify_cli's --sim set.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "programs/chain.hpp"
#include "programs/programs.hpp"
#include "util/rng.hpp"

namespace rfsp::testing {

struct SimWorkload {
  std::string label;
  // The chain is non-owning over its stages, so the bundle keeps them alive;
  // `program` points at the last one adopted.
  std::vector<std::shared_ptr<const SimProgram>> owned;
  const SimProgram* program = nullptr;
};

inline std::vector<Word> sim_workload_values(std::size_t n,
                                             std::uint64_t seed, Word bound) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

// Every workload for `n` simulated processors (bitonic rounds n down to a
// power of two, matmul to the largest m with m² <= n).
inline std::vector<SimWorkload> all_sim_workloads(Addr n, std::uint64_t seed) {
  std::vector<SimWorkload> out;
  auto add = [&](std::string label, std::shared_ptr<const SimProgram> p) {
    SimWorkload w;
    w.label = std::move(label);
    w.program = p.get();
    w.owned.push_back(std::move(p));
    out.push_back(std::move(w));
  };
  add("prefix-sum", std::make_shared<PrefixSumProgram>(
                        sim_workload_values(n, seed, 1000)));
  add("max-reduce", std::make_shared<MaxReduceProgram>(
                        sim_workload_values(n, seed, 1u << 20)));
  {
    std::vector<Pid> next(n);
    for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
    next.back() = static_cast<Pid>(next.size() - 1);
    add("list-ranking", std::make_shared<ListRankingProgram>(next));
  }
  add("odd-even-sort", std::make_shared<OddEvenSortProgram>(
                           sim_workload_values(n, seed, 10000)));
  {
    Addr m = 1;
    while (m * 2 <= n) m *= 2;
    add("bitonic-sort", std::make_shared<BitonicSortProgram>(
                            sim_workload_values(m, seed, 10000)));
  }
  {
    std::vector<Word> rod(n, 0);
    rod.front() = 1000;
    add("stencil", std::make_shared<StencilProgram>(rod, n / 2 + 4));
  }
  {
    Addr m = 1;
    while ((m + 1) * (m + 1) <= n) ++m;
    add("matmul", std::make_shared<MatMulProgram>(
                      sim_workload_values(m * m, seed, 10),
                      sim_workload_values(m * m, seed + 1, 10),
                      static_cast<Pid>(m)));
  }
  add("leader-elect",
      std::make_shared<LeaderElectProgram>(static_cast<Pid>(n)));
  {
    Rng rng(seed + 17);
    std::vector<std::pair<Pid, Pid>> edges;
    for (Addr e = 0; e < n + n / 5; ++e) {
      edges.emplace_back(static_cast<Pid>(rng.below(n)),
                         static_cast<Pid>(rng.below(n)));
    }
    add("components", std::make_shared<ConnectedComponentsProgram>(
                          static_cast<Pid>(n), std::move(edges)));
  }
  {
    const auto keys = sim_workload_values(n, seed, 1000);
    auto sorter = std::make_shared<OddEvenSortProgram>(keys);
    auto scanner = std::make_shared<PrefixSumProgram>(keys);
    add("sort-scan", std::make_shared<ChainedProgram>(*sorter, *scanner));
    out.back().owned.push_back(std::move(sorter));
    out.back().owned.push_back(std::move(scanner));
  }
  return out;
}

}  // namespace rfsp::testing
