// The row generation every lazily generated TE LP shares: pricing to
// completion whatever the model size, the per-round budget and order, the
// deadline stop, and snapshot replay onto a fresh model prefix.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "te/lp_common.h"
#include "util/deadline.h"

namespace prete::te {
namespace {

// A small CVaR-like LP. The prefix holds N allocation columns x_k in
// [0, 10] and the budget row sum_k x_k <= N/2. Key k's lazy row appends a
// shortfall column s_k in [0, 1] costing w_k = 1 + k/1000 and the row
// s_k + x_k >= 1, so missing keys are violated until they are added and
// the optimum spends the budget on the costliest shortfalls.
struct ToyLp {
  static constexpr int kKeys = 100;
  lp::Model model{lp::Sense::kMinimize};
  std::vector<int> x;

  explicit ToyLp(int extra_prefix_rows = 0) {
    std::vector<lp::Coefficient> budget;
    for (int k = 0; k < kKeys; ++k) {
      x.push_back(model.add_variable(0.0, 10.0, 0.0));
      budget.push_back({x.back(), 1.0});
    }
    model.add_row(std::move(budget), lp::RowType::kLessEqual, kKeys / 2.0);
    for (int r = 0; r < extra_prefix_rows; ++r) {
      model.add_row({{x[static_cast<std::size_t>(r % kKeys)], 1.0}},
                    lp::RowType::kLessEqual, 10.0);
    }
  }

  static double weight(int k) { return 1.0 + k / 1000.0; }

  RowGenerator<int> generator() {
    return RowGenerator<int>(
        model, kKeys, [](const int& k) { return static_cast<std::size_t>(k); },
        [this](const int& k) {
          const int s = model.add_variable(0.0, 1.0, weight(k));
          model.add_row({{s, 1.0}, {x[static_cast<std::size_t>(k)], 1.0}},
                        lp::RowType::kGreaterEqual, 1.0);
        });
  }

  // One pricing group per key: violated while missing and x_k < 1.
  auto pricer(const RowGenerator<int>& rows) const {
    return [this, &rows](const lp::Solution& sol, std::size_t k,
                         std::vector<RowCandidate<int>>& out) {
      const int key = static_cast<int>(k);
      const double shortfall = 1.0 - sol.x[static_cast<std::size_t>(x[k])];
      if (!rows.has(key) && shortfall > 1e-9) {
        out.push_back({weight(key) * shortfall, key});
      }
    };
  }
};

TEST(RowGenerationTest, LargeModelStillPricesEveryKey) {
  // 900 prefix rows before the first lazy row: no model size stops the loop
  // short of pricing.
  ToyLp lp(899);
  ASSERT_EQ(lp.model.num_rows(), 900);
  RowGenerator<int> rows = lp.generator();
  const auto result = rows.run({}, {}, ToyLp::kKeys, lp.pricer(rows));
  EXPECT_EQ(result.stop, RowStop::kPriced);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.solves, 3);
  EXPECT_EQ(result.keys.size(), static_cast<std::size_t>(ToyLp::kKeys));
  EXPECT_EQ(lp.model.num_rows(), 900 + ToyLp::kKeys);
  EXPECT_EQ(result.optimal.status, lp::SolveStatus::kOptimal);
}

TEST(RowGenerationTest, AddsAtMostSixtyRowsPerRoundInDescendingScore) {
  ToyLp lp;
  RowGenerator<int> rows = lp.generator();
  const auto price = lp.pricer(rows);
  std::vector<int> rows_at_pricing;
  const auto result = rows.run(
      {}, {}, ToyLp::kKeys,
      [&](const lp::Solution& sol, std::size_t k,
          std::vector<RowCandidate<int>>& out) {
        if (k == 0) rows_at_pricing.push_back(lp.model.num_rows());
        price(sol, k, out);
      });
  EXPECT_EQ(result.stop, RowStop::kPriced);
  // 100 violated keys: 60 in the first round, the other 40 in the second.
  EXPECT_EQ(rows_at_pricing, (std::vector<int>{1, 1 + kMaxRowsPerRound,
                                               1 + ToyLp::kKeys}));
  // Every missing key sits at x = 0 when priced, so the score is its
  // weight and each round adds the heaviest keys first.
  ASSERT_EQ(result.keys.size(), static_cast<std::size_t>(ToyLp::kKeys));
  for (int i = 0; i < ToyLp::kKeys; ++i) {
    EXPECT_EQ(result.keys[static_cast<std::size_t>(i)], ToyLp::kKeys - 1 - i);
  }
  EXPECT_EQ(result.keys, rows.keys());
}

TEST(RowGenerationTest, PricesOnTheCallingThreadInGroupOrder) {
  // A decision's LP solves form a dependent chain, and one pricing sweep is
  // too little work to pay for a fork and join, so the sweep runs on the
  // caller's thread in group order even when a pool has idle workers.
  runtime::ThreadPool::set_global_threads(4);
  ToyLp lp;
  RowGenerator<int> rows = lp.generator();
  const auto price = lp.pricer(rows);
  std::mutex mutex;  // a sweep handed to the pool would call concurrently
  std::vector<std::pair<std::thread::id, std::size_t>> calls;
  const auto result = rows.run(
      {}, {}, ToyLp::kKeys,
      [&](const lp::Solution& sol, std::size_t k,
          std::vector<RowCandidate<int>>& out) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          calls.push_back({std::this_thread::get_id(), k});
        }
        // Long enough per group for idle workers to wake and take part, had
        // the sweep been handed to the pool.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(100);
        while (std::chrono::steady_clock::now() < until) {
        }
        price(sol, k, out);
      });
  runtime::ThreadPool::set_global_threads(0);
  EXPECT_EQ(result.stop, RowStop::kPriced);
  // One sweep of every group per optimal solve.
  ASSERT_EQ(calls.size(),
            static_cast<std::size_t>(result.solves) * ToyLp::kKeys);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, std::this_thread::get_id()) << "call " << i;
    EXPECT_EQ(calls[i].second, i % ToyLp::kKeys) << "call " << i;
  }
}

TEST(RowGenerationTest, DeadlineStopsAtRoundStartAndKeepsLastOptimum) {
  ToyLp lp;
  RowGenerator<int> rows = lp.generator();
  const auto price = lp.pricer(rows);
  util::Deadline deadline;
  lp::SimplexOptions options;
  options.deadline = &deadline;
  int rounds_priced = 0;
  const auto result = rows.run(
      options, {}, ToyLp::kKeys,
      [&](const lp::Solution& sol, std::size_t k,
          std::vector<RowCandidate<int>>& out) {
        // Cancel while the second round prices: its rows are added, but
        // the third solve never starts.
        if (k == 0 && ++rounds_priced == 2) deadline.request_cancel();
        price(sol, k, out);
      });
  EXPECT_EQ(result.stop, RowStop::kDeadline);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.solves, 2);
  ASSERT_EQ(result.optimal.status, lp::SolveStatus::kOptimal);
  ASSERT_NE(result.incumbent(), nullptr);
  EXPECT_EQ(result.incumbent(), &result.optimal);
  // The snapshot covers the rows of the second solve, not the rows added
  // after it.
  EXPECT_EQ(result.keys.size(), static_cast<std::size_t>(kMaxRowsPerRound));
  EXPECT_EQ(result.basis.num_rows(), 1 + kMaxRowsPerRound);
  EXPECT_EQ(lp.model.num_rows(), 1 + ToyLp::kKeys);
}

TEST(RowGenerationTest, ReplayedSnapshotInstallsWithoutPivots) {
  ToyLp first;
  RowGenerator<int> first_rows = first.generator();
  const auto cold =
      first_rows.run({}, {}, ToyLp::kKeys, first.pricer(first_rows));
  ASSERT_EQ(cold.stop, RowStop::kPriced);
  ASSERT_TRUE(cold.basis.valid());

  ToyLp second;
  RowGenerator<int> rows = second.generator();
  const lp::SimplexBasis warm =
      rows.replay(cold.basis, cold.keys, [](const int&) { return true; });
  ASSERT_TRUE(warm.valid());
  EXPECT_EQ(rows.keys(), cold.keys);
  const auto replayed = rows.run({}, warm, ToyLp::kKeys, second.pricer(rows));
  EXPECT_EQ(replayed.stop, RowStop::kPriced);
  EXPECT_TRUE(replayed.warm_installed);
  EXPECT_EQ(replayed.solves, 1);
  EXPECT_EQ(replayed.pivots, 0);
  EXPECT_DOUBLE_EQ(replayed.optimal.objective, cold.optimal.objective);
}

TEST(RowGenerationTest, ReplayStopsAtFirstRefusedKeyAndTruncates) {
  ToyLp first;
  RowGenerator<int> first_rows = first.generator();
  const auto cold =
      first_rows.run({}, {}, ToyLp::kKeys, first.pricer(first_rows));
  ASSERT_TRUE(cold.basis.valid());
  ASSERT_EQ(cold.basis.num_structural(), 2 * ToyLp::kKeys);

  ToyLp second;
  RowGenerator<int> rows = second.generator();
  constexpr std::size_t kAdmitted = 10;
  const int refused = cold.keys[kAdmitted];
  const lp::SimplexBasis warm =
      rows.replay(cold.basis, cold.keys,
                  [&](const int& key) { return key != refused; });
  // Keys past the refused one are not replayed, even admissible ones.
  ASSERT_EQ(rows.keys().size(), kAdmitted);
  for (std::size_t i = 0; i < cold.keys.size(); ++i) {
    EXPECT_EQ(rows.has(cold.keys[i]), i < kAdmitted) << "key " << cold.keys[i];
  }
  EXPECT_EQ(second.model.num_rows(), 1 + static_cast<int>(kAdmitted));
  EXPECT_EQ(second.model.num_variables(),
            ToyLp::kKeys + static_cast<int>(kAdmitted));
  // The basis keeps the prefix plus the replayed rows and shortfall columns.
  ASSERT_TRUE(warm.valid());
  EXPECT_EQ(warm.num_rows(), second.model.num_rows());
  EXPECT_EQ(warm.num_structural(), second.model.num_variables());
  // The truncated seed still solves to the cold optimum.
  const auto result = rows.run({}, warm, ToyLp::kKeys, second.pricer(rows));
  EXPECT_EQ(result.stop, RowStop::kPriced);
  EXPECT_NEAR(result.optimal.objective, cold.optimal.objective, 1e-9);
}

TEST(RowGenerationTest, ReplayOntoAnInvalidBasisSeedsNothing) {
  ToyLp lp;
  RowGenerator<int> rows = lp.generator();
  const auto admit_all = [](const int&) { return true; };
  EXPECT_FALSE(rows.replay(lp::SimplexBasis{}, {1, 2, 3}, admit_all).valid());
  EXPECT_TRUE(rows.keys().empty());
  EXPECT_EQ(lp.model.num_rows(), 1);
}

}  // namespace
}  // namespace prete::te
