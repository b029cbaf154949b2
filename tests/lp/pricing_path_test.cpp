#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/hash.h"
#include "util/rng.h"

// Pricing-path regression. Pricing is incremental: reduced costs are cached
// and re-priced only for the columns the pivot row reaches, devex weights
// come from a row-wise scatter of the pivot row, and the entering column is
// read off a merit tree. All of it must walk exactly the pivot path of a
// full pricing pass per pivot. The pinned digests were recorded with the
// full-scan engine; each folds every solve of one model (iteration count,
// status, and the bits of the objective and of the point) under every
// pricing regime, so a cache that drifts from a full pass — a stale leaf, a
// skipped re-price, a sum in another order — moves them. The digests assume
// IEEE binary64 arithmetic without fused multiply-adds, the x86-64 default.

namespace prete::lp {
namespace {

// A sparse random LP in the TE solvers' mould: bounded columns, mixed row
// senses, a few equality rows, all feasible at a random interior point.
// Every third model has at least twice as many columns as rows, so the
// automatic candidate window engages.
Model random_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  const int rows = 12 + static_cast<int>(rng.next_below(36));
  const int n = seed % 3 == 0 ? 2 * rows + 24 + static_cast<int>(rng.next_below(40))
                              : 20 + static_cast<int>(rng.next_below(60));
  Model m(seed % 2 == 0 ? Sense::kMaximize : Sense::kMinimize);
  std::vector<double> interior(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double upper = rng.bernoulli(0.1) ? kInfinity : rng.uniform(1.0, 10.0);
    const double sign = seed % 2 == 0 ? 1.0 : -1.0;
    m.add_variable(0.0, upper, sign * rng.uniform(-0.5, 2.0));
    interior[static_cast<std::size_t>(j)] = rng.uniform(0.0, 1.0);
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coefficient> coefs;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.12)) continue;
      const double a = rng.uniform(-1.0, 3.0);
      coefs.push_back({j, a});
      lhs += a * interior[static_cast<std::size_t>(j)];
    }
    if (coefs.empty()) {
      const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      coefs.push_back({j, 1.0});
      lhs = interior[static_cast<std::size_t>(j)];
    }
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.1) {
      m.add_row(std::move(coefs), RowType::kEqual, lhs);
    } else if (pick < 0.3) {
      m.add_row(std::move(coefs), RowType::kGreaterEqual, lhs - rng.uniform(0.0, 1.0));
    } else {
      m.add_row(std::move(coefs), RowType::kLessEqual, lhs + rng.uniform(0.0, 2.0));
    }
  }
  return m;
}

// Appends rows that cut through the given point: a warm re-solve must pivot.
Model with_cuts(Model m, const std::vector<double>& x, util::Rng& rng) {
  for (int cut = 0; cut < 4; ++cut) {
    std::vector<Coefficient> coefs;
    double lhs = 0.0;
    for (int j = 0; j < m.num_variables(); ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const double a = rng.uniform(0.5, 2.0);
      coefs.push_back({j, a});
      lhs += a * x[static_cast<std::size_t>(j)];
    }
    if (coefs.empty()) continue;
    m.add_row(std::move(coefs), RowType::kLessEqual, 0.8 * lhs);
  }
  return m;
}

std::uint64_t fold(std::uint64_t digest, const Solution& s) {
  digest = util::fnv1a_u64(digest, static_cast<std::uint64_t>(s.status));
  digest = util::fnv1a_u64(digest, static_cast<std::uint64_t>(s.iterations));
  digest = util::fnv1a_u64(digest, std::bit_cast<std::uint64_t>(s.objective));
  for (const double v : s.x) digest = util::fnv1a_u64(digest, std::bit_cast<std::uint64_t>(v));
  return digest;
}

// Every solve of model `seed` folded into one digest; `pivots` counts them.
std::uint64_t path_digest(std::uint64_t seed, int& pivots) {
  const Model m = random_lp(seed);
  std::uint64_t digest = util::kFnvOffsetBasis;
  const auto solve = [&](const Model& model, SimplexOptions options,
                         const SimplexBasis* warm, SimplexBasis* out) {
    const Solution s = SimplexSolver(options).solve(model, warm, out);
    pivots += s.iterations;
    digest = fold(digest, s);
    return s;
  };

  SimplexBasis basis;
  const Solution cold = solve(m, SimplexOptions{}, nullptr, &basis);  // devex, auto window
  SimplexOptions windowed;  // a small window wraps many times
  windowed.pricing_window = 7;
  solve(m, windowed, nullptr, nullptr);
  SimplexOptions full;
  full.pricing_window = -1;
  solve(m, full, nullptr, nullptr);
  SimplexOptions bland;  // Bland's regime after short degenerate streaks
  bland.degenerate_pivot_limit = 2;
  solve(m, bland, nullptr, nullptr);
  SimplexOptions lu;  // the LU anchor's pivot row
  lu.lu_threshold = 1;
  solve(m, lu, nullptr, nullptr);
  SimplexOptions reinvert;  // reinversion, and so exact duals, every 5 pivots
  reinvert.refactor_interval = 5;
  solve(m, reinvert, nullptr, nullptr);

  if (cold.status == SolveStatus::kOptimal) {
    util::Rng rng(seed * 7919);
    const Model cut = with_cuts(m, cold.x, rng);
    solve(cut, SimplexOptions{}, &basis, nullptr);
  }
  return digest;
}

// Recorded from an engine whose pivot paths matched the full-scan pricing
// engine's on every leg above.
constexpr std::uint64_t kGolden[] = {
    0x790a14f8120aec0dULL,
    0x7abf60197d9f114bULL,
    0x5aae801dbc4f4505ULL,
    0x359ee601e5bd4eadULL,
    0x31c0607f52068515ULL,
    0x80e7136e2de991f4ULL,
    0x9090a1f97eb5875cULL,
    0x62a35372ee22ccfdULL,
    0xe29f83022441d5c0ULL,
    0xb0b27cdaf48ff1eaULL,
    0xb51cd87b2b77680aULL,
    0xd4b0e85304234c9fULL,
    0x10a29c7ccdc3832dULL,
    0x28a4f952cf045d3aULL,
    0xe6ddc486342b6fb6ULL,
    0x4fb3921d83862159ULL,
};

TEST(PricingPathTest, SamePathsAsFullPricing) {
  int pivots = 0;
  for (std::size_t k = 0; k < std::size(kGolden); ++k) {
    const std::uint64_t digest = path_digest(k + 1, pivots);
    EXPECT_EQ(digest, kGolden[k]) << "model " << k + 1 << std::hex << " digest 0x" << digest;
  }
  // The models are big enough to exercise the pricing machinery.
  EXPECT_GT(pivots, 1000);
}

}  // namespace
}  // namespace prete::lp
