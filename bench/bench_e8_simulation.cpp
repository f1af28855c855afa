// E8 — Theorem 4.1 + Corollary 4.12 (claim row R9): executing arbitrary
// N-processor PRAM programs on P restartable fail-stop processors.
//
// Paper shape: completed work per run, normalized by the fault-free
// Parallel-time × Processors product τ·N, is a bounded constant when
// P ≤ N/log²N and the per-step pattern is O(N/log N) (the work-optimal
// regime of Corollary 4.12), and grows (≈ P log²N per step dominates)
// outside it. Also an ablation over the embedded Write-All algorithm
// (combined VX vs X vs V), which Theorem 4.9 motivates.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "fault/adversaries.hpp"
#include "programs/programs.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rfsp {
namespace {

std::vector<Word> inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(1000));
  return v;
}

void print_optimality() {
  const Addr n = 1024;
  const unsigned logn = floor_log2(n);
  PrefixSumProgram program(inputs(n, 3));
  const double tau_n =
      static_cast<double>(program.steps()) * static_cast<double>(n);

  Table table({"P", "regime", "faults", "S", "S/(tau*N)", "sigma"});
  struct Case {
    Pid p;
    const char* regime;
    double fail;
  };
  const Case cases[] = {
      {static_cast<Pid>(n / (logn * logn)), "P<=N/log^2N", 0.0},
      {static_cast<Pid>(n / (logn * logn)), "P<=N/log^2N", 0.02},
      {static_cast<Pid>(n / logn), "P=N/logN", 0.0},
      {static_cast<Pid>(n), "P=N", 0.0},
      {static_cast<Pid>(n), "P=N", 0.05},
  };
  for (const Case& c : cases) {
    std::unique_ptr<Adversary> adversary;
    if (c.fail == 0) {
      adversary = std::make_unique<NoFailures>();
    } else {
      adversary = std::make_unique<RandomAdversary>(
          5, RandomAdversaryOptions{.fail_prob = c.fail, .restart_prob = 0.7});
    }
    const SimResult r =
        simulate(program, *adversary, {.physical_processors = c.p});
    if (!r.completed || !program.verify(r.memory)) continue;
    table.add_row({fmt_int(c.p), c.regime,
                   c.fail == 0 ? "none" : fmt_fixed(c.fail, 2),
                   fmt_int(r.tally.completed_work),
                   fmt_fixed(r.tally.completed_work / tau_n, 2),
                   fmt_fixed(r.tally.overhead_ratio(n), 2)});
  }
  bench::print_table(
      "E8a: simulating prefix sums (N=1024 simulated) — work-optimality "
      "region of Cor 4.12 (S/(tau*N) flat for P<=N/log^2N)",
      table);
}

void print_inner_ablation() {
  const Addr n = 256;
  PrefixSumProgram program(inputs(n, 4));
  Table table({"inner Write-All", "faults", "S", "slots"});
  struct Case {
    SimInner inner;
    const char* label;
  };
  for (const Case c : {Case{SimInner::kCombinedVX, "VX (Thm 4.9)"},
                       Case{SimInner::kX, "X only"},
                       Case{SimInner::kV, "V only"}}) {
    for (const double fail : {0.0, 0.1}) {
      std::unique_ptr<Adversary> adversary;
      if (fail == 0) {
        adversary = std::make_unique<NoFailures>();
      } else {
        adversary = std::make_unique<RandomAdversary>(
            6,
            RandomAdversaryOptions{.fail_prob = fail, .restart_prob = 0.6});
      }
      const SimResult r = simulate(
          program, *adversary,
          {.physical_processors = static_cast<Pid>(n / 16), .inner = c.inner});
      if (!r.completed || !program.verify(r.memory)) continue;
      table.add_row({c.label, fail == 0 ? "none" : fmt_fixed(fail, 2),
                     fmt_int(r.tally.completed_work),
                     fmt_int(r.tally.slots)});
    }
  }
  bench::print_table(
      "E8b: ablation — embedded Write-All algorithm inside the simulator",
      table);
}

void print_workloads() {
  Table table({"program", "N sim", "P phys", "faults |F|", "S", "correct"});
  RandomAdversaryOptions storm{.fail_prob = 0.08, .restart_prob = 0.5};
  {
    OddEvenSortProgram program(inputs(96, 7));
    RandomAdversary adversary(8, storm);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 32});
    table.add_row({"odd-even sort", "96", "32",
                   fmt_int(r.tally.pattern_size()),
                   fmt_int(r.tally.completed_work),
                   r.completed && program.verify(r.memory) ? "yes" : "NO"});
  }
  {
    std::vector<Pid> next(128);
    for (Pid j = 0; j + 1 < next.size(); ++j) next[j] = j + 1;
    next.back() = static_cast<Pid>(next.size() - 1);
    ListRankingProgram program(next);
    RandomAdversary adversary(9, storm);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 16});
    table.add_row({"list ranking", "128", "16",
                   fmt_int(r.tally.pattern_size()),
                   fmt_int(r.tally.completed_work),
                   r.completed && program.verify(r.memory) ? "yes" : "NO"});
  }
  {
    MatMulProgram program(inputs(144, 10), inputs(144, 11), 12);
    RandomAdversary adversary(10, storm);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 36});
    table.add_row({"matmul 12x12", "144", "36",
                   fmt_int(r.tally.pattern_size()),
                   fmt_int(r.tally.completed_work),
                   r.completed && program.verify(r.memory) ? "yes" : "NO"});
  }
  {
    // ARBITRARY CRCW workload (hook-and-jump connected components).
    Rng rng(44);
    std::vector<std::pair<Pid, Pid>> edges;
    for (int e = 0; e < 40; ++e) {
      edges.emplace_back(static_cast<Pid>(rng.below(32)),
                         static_cast<Pid>(rng.below(32)));
    }
    ConnectedComponentsProgram program(32, edges);
    RandomAdversary adversary(11, storm);
    const SimResult r =
        simulate(program, adversary, {.physical_processors = 16});
    table.add_row({"connected comps", "40", "16",
                   fmt_int(r.tally.pattern_size()),
                   fmt_int(r.tally.completed_work),
                   r.completed && program.verify(r.memory) ? "yes" : "NO"});
  }
  bench::print_table(
      "E8c: assorted PRAM workloads simulated under restart storms "
      "(Thm 4.1 generality)",
      table);
}

void BM_Simulate(benchmark::State& state) {
  const Addr n = static_cast<Addr>(state.range(0));
  const Pid p = static_cast<Pid>(state.range(1));
  const bool batch = state.range(2) != 0;
  PrefixSumProgram program(inputs(n, 3));
  SimResult r;
  for (auto _ : state) {
    NoFailures none;
    SimOptions options{.physical_processors = p};
    options.batch = batch;
    r = simulate(program, none, options);
  }
  if (!r.completed) state.SkipWithError("simulation incomplete");
  if (r.batch_active != batch) state.SkipWithError("unexpected backend");
  state.counters["S"] = static_cast<double>(r.tally.completed_work);
  state.counters["S_over_tauN"] =
      r.tally.completed_work /
      (static_cast<double>(program.steps()) * static_cast<double>(n));
}

}  // namespace
}  // namespace rfsp

int main(int argc, char** argv) {
  rfsp::print_optimality();
  rfsp::print_inner_ablation();
  rfsp::print_workloads();
  // The interpreter rows keep their names; the batch rows run the same
  // simulations on the batched backend (identical tallies).
  for (const long batch : {0L, 1L}) {
    for (long n : {256L, 1024L}) {
      for (long div : {100L, 10L, 1L}) {
        const long p = std::max(1L, n / div);
        benchmark::RegisterBenchmark(
            ("E8/prefix-sum/" + std::string(batch != 0 ? "batch/" : "") +
             "n:" + std::to_string(n) + "/p:" + std::to_string(p))
                .c_str(),
            rfsp::BM_Simulate)
            ->Args({n, p, batch})
            ->Iterations(1);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
