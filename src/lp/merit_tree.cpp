#include "lp/merit_tree.h"

namespace prete::lp {

void MeritTree::reset(int n) {
  n_ = n;
  merit_.assign(static_cast<std::size_t>(n), kIneligible);
  winner_.resize(2 * static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    winner_[static_cast<std::size_t>(n + j)] = j;
  }
  build();
}

void MeritTree::build() {
  for (int i = n_ - 1; i >= 1; --i) {
    winner_[static_cast<std::size_t>(i)] =
        play(winner_[2 * static_cast<std::size_t>(i)],
             winner_[2 * static_cast<std::size_t>(i) + 1]);
  }
}

void MeritTree::replay(int j) {
  for (int i = (n_ + j) >> 1; i >= 1; i >>= 1) {
    int& slot = winner_[static_cast<std::size_t>(i)];
    const int before = slot;
    slot = play(winner_[2 * static_cast<std::size_t>(i)],
                winner_[2 * static_cast<std::size_t>(i) + 1]);
    // Same winner, and not the leaf that moved: everything above is as it
    // was.
    if (slot == before && before != j) return;
  }
}

int MeritTree::best(int begin, int end) const {
  int winner = -1;
  for (int lo = begin + n_, hi = end + n_; lo < hi; lo >>= 1, hi >>= 1) {
    if (lo & 1) winner = play(winner, winner_[static_cast<std::size_t>(lo++)]);
    if (hi & 1) winner = play(winner, winner_[static_cast<std::size_t>(--hi)]);
  }
  return eligible(winner);
}

int MeritTree::best_wrapped(int begin, int count) const {
  const int end = begin + count;
  if (end <= n_) return best(begin, end);
  return eligible(play(best(begin, n_), best(0, end - n_)));
}

}  // namespace prete::lp
