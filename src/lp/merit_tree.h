#pragma once

#include <vector>

namespace prete::lp {

// A max tournament tree over per-column pricing merits: the simplex
// engine's CHUZC. Leaf j holds column j's merit, or kIneligible (any
// negative value) when the column may not enter; every internal node holds
// the winning leaf of its subtree. The winner of a set of leaves is the
// largest merit, ties going to the lowest index — exactly the rule of a
// left-to-right scan that replaces its best only on a strictly larger
// merit. That order is total, so any bracketing of the leaves crowns the
// same winner, and a range query is as deterministic as the scan.
//
// A leaf update re-plays only the matches on its path to the root, and
// stops early once a match's winner is unchanged and is not the updated
// leaf; a bulk load rebuilds every match in O(n).
class MeritTree {
 public:
  static constexpr double kIneligible = -1.0;

  // n leaves, all ineligible.
  void reset(int n);

  // Writes leaf j without re-playing its matches; call build() after a
  // batch of loads.
  void load(int j, double merit) { merit_[static_cast<std::size_t>(j)] = merit; }
  // Re-plays every match from the loaded leaves.
  void build();

  // Sets leaf j and re-plays the matches above it (none when its merit is
  // unchanged).
  void update(int j, double merit) {
    double& leaf = merit_[static_cast<std::size_t>(j)];
    if (leaf == merit) return;
    leaf = merit;
    replay(j);
  }

  // The winning eligible leaf among [begin, end), or -1 when none is.
  int best(int begin, int end) const;

  // The winning eligible leaf among the `count` (at most n) leaves starting
  // at `begin` and wrapping past the last leaf to leaf 0 (a rotating
  // candidate window), or -1.
  int best_wrapped(int begin, int count) const;

 private:
  // Re-plays the matches on leaf j's path to the root.
  void replay(int j);
  // The winner of leaves a and b (either may be -1, meaning no leaf).
  int play(int a, int b) const {
    if (a < 0) return b;
    if (b < 0) return a;
    const double ma = merit_[static_cast<std::size_t>(a)];
    const double mb = merit_[static_cast<std::size_t>(b)];
    return (ma > mb || (ma == mb && a < b)) ? a : b;
  }
  int eligible(int j) const {
    return j >= 0 && merit_[static_cast<std::size_t>(j)] >= 0.0 ? j : -1;
  }

  int n_ = 0;
  std::vector<double> merit_;
  // winner_[i] for 1 <= i < n_ is the winning leaf of node i; leaf j sits
  // at node n_ + j, whose children are 2i and 2i + 1.
  std::vector<int> winner_;
};

}  // namespace prete::lp
