#include "te/scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>

#include "util/hash.h"

namespace prete::te {

FailureScenario::FailureScenario(std::vector<net::FiberId> failed,
                                 double probability)
    : probability(probability), failed_(std::move(failed)) {
  for (std::size_t i = 0; i < failed_.size(); ++i) {
    if (failed_[i] < 0 || (i > 0 && failed_[i] <= failed_[i - 1])) {
      throw std::invalid_argument(
          "failure scenario: fiber ids must be ascending, unique and >= 0");
    }
    signature_ =
        util::fnv1a_u64(signature_, static_cast<std::uint64_t>(failed_[i]));
  }
}

namespace {

// Exact product-form probability of the scenario where exactly the fibers
// in `failed` are cut.
double subset_probability(const std::vector<double>& cut_probs,
                          const std::vector<int>& failed) {
  double p = 1.0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < cut_probs.size(); ++i) {
    const bool is_failed =
        next < failed.size() && failed[next] == static_cast<int>(i);
    if (is_failed) ++next;
    p *= is_failed ? cut_probs[i] : (1.0 - cut_probs[i]);
  }
  return p;
}

// A candidate scenario before truncation: the sorted failed-fiber set and
// its exact probability.
struct Candidate {
  std::vector<int> failed;
  double probability;
};

void sort_candidates(std::vector<Candidate>& candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.failed < b.failed;  // deterministic tie-break
            });
}

// Keeps candidates (already sorted by decreasing probability) subject to the
// count/mass cutoffs, filling the set's truncation accounting. The covered +
// residual ≈ 1 identity is checked before returning: `enumerated_total` is
// the summed mass of every candidate, so dropped mass plus the
// never-enumerated mass (1 - enumerated_total) must complement the covered
// mass exactly (up to float summation error).
ScenarioSet truncate_candidates(const std::vector<Candidate>& candidates,
                                double enumerated_total,
                                int max_scenarios, double target_mass) {
  ScenarioSet set;
  double dropped_mass = 0.0;
  bool capped = false;
  for (const Candidate& c : candidates) {
    if (c.probability <= 0.0) continue;  // impossible scenario
    if (capped || static_cast<int>(set.scenarios.size()) >= max_scenarios) {
      ++set.dropped_scenarios;
      dropped_mass += c.probability;
      continue;
    }
    set.scenarios.emplace_back(c.failed, c.probability);
    set.covered_probability += c.probability;
    if (set.covered_probability >= target_mass) capped = true;
  }
  double unenumerated = 1.0 - enumerated_total;
  if (unenumerated < 0.0) {
    if (unenumerated < -1e-9) {
      throw std::logic_error("scenario mass accounting: enumerated mass > 1");
    }
    unenumerated = 0.0;
  }
  set.residual_probability = dropped_mass + unenumerated;
  if (std::abs(set.covered_probability + set.residual_probability - 1.0) >
      1e-6) {
    throw std::logic_error(
        "scenario mass accounting: covered + residual != 1");
  }
  return set;
}

}  // namespace

ScenarioSet generate_failure_scenarios(const std::vector<double>& cut_probs,
                                       const ScenarioOptions& options) {
  const auto n = static_cast<int>(cut_probs.size());
  for (double p : cut_probs) {
    // Negated form so NaN (for which every comparison is false) is rejected
    // instead of slipping through and poisoning every subset probability.
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("probability out of range");
    }
  }

  std::vector<Candidate> candidates;
  candidates.push_back({{}, subset_probability(cut_probs, {})});
  if (options.max_simultaneous_failures >= 1) {
    for (int i = 0; i < n; ++i) {
      candidates.push_back({{i}, subset_probability(cut_probs, {i})});
    }
  }
  if (options.max_simultaneous_failures >= 2) {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        candidates.push_back({{i, j}, subset_probability(cut_probs, {i, j})});
      }
    }
  }

  double enumerated_total = 0.0;
  for (const Candidate& c : candidates) {
    if (c.probability > 0.0) enumerated_total += c.probability;
  }
  sort_candidates(candidates);
  return truncate_candidates(candidates, enumerated_total,
                             options.max_scenarios, options.target_mass);
}

namespace {

void validate_correlated(const CorrelatedFailureModel& model,
                         const CorrelatedScenarioOptions& options) {
  if (model.num_fibers <= 0) {
    throw std::invalid_argument("correlated model: num_fibers must be > 0");
  }
  if (model.background.size() != static_cast<std::size_t>(model.num_fibers)) {
    throw std::invalid_argument(
        "correlated model: background probability size mismatch");
  }
  for (double b : model.background) {
    if (!(b >= 0.0 && b < 1.0)) {
      throw std::invalid_argument(
          "correlated model: background probabilities must be in [0, 1)");
    }
  }
  for (const CutEvent& e : model.events) {
    if (!(e.probability >= 0.0 && e.probability < 1.0)) {
      throw std::invalid_argument(
          "correlated model: event probability must be in [0, 1)");
    }
    if (e.fibers.empty() || e.fibers.size() != e.conditional.size()) {
      throw std::invalid_argument(
          "correlated model: event member/conditional size mismatch");
    }
    for (std::size_t i = 0; i < e.fibers.size(); ++i) {
      if (e.fibers[i] < 0 || e.fibers[i] >= model.num_fibers) {
        throw std::invalid_argument(
            "correlated model: event member fiber out of range");
      }
      if (i > 0 && e.fibers[i] <= e.fibers[i - 1]) {
        throw std::invalid_argument(
            "correlated model: event members must be sorted and unique");
      }
      if (!(e.conditional[i] >= 0.0 && e.conditional[i] <= 1.0)) {
        throw std::invalid_argument(
            "correlated model: conditional probability out of range");
      }
    }
  }
  if (options.max_scenarios < 1 || options.max_patterns_per_event < 1 ||
      options.background_pair_candidates < 0 ||
      options.max_background_failures < 0) {
    throw std::invalid_argument("correlated scenario options out of range");
  }
}

// The `max_patterns` highest-probability cut patterns over independent
// member Bernoullis, best-first: start from the argmax pattern (cut iff
// conditional >= 0.5) and explore single flips in decreasing-probability
// order through a heap, generating each subset of flips exactly once
// (children extend the flip set past its largest element, or replace the
// largest element with the next one).
struct MemberPattern {
  std::vector<bool> cut;  // per member
  double probability;     // product over members
};

std::vector<MemberPattern> top_member_patterns(
    const std::vector<double>& conditional, int max_patterns) {
  const std::size_t m = conditional.size();
  std::vector<bool> base(m);
  // Flip cost per member: probability ratio of the unlikely choice to the
  // likely one. Sorted descending so cheap flips are explored first.
  std::vector<double> ratio(m);
  std::vector<std::size_t> order(m);
  double best = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double c = conditional[i];
    base[i] = c >= 0.5;
    const double likely = base[i] ? c : 1.0 - c;
    const double unlikely = 1.0 - likely;
    best *= likely;
    ratio[i] = likely > 0.0 ? unlikely / likely : 0.0;
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ratio[a] != ratio[b]) return ratio[a] > ratio[b];
    return a < b;
  });

  struct State {
    double probability;
    std::vector<std::size_t> flips;  // indices into `order`, increasing
  };
  const auto worse = [](const State& a, const State& b) {
    if (a.probability != b.probability) return a.probability < b.probability;
    return a.flips > b.flips;  // deterministic tie-break
  };
  std::priority_queue<State, std::vector<State>, decltype(worse)> heap(worse);
  heap.push({best, {}});

  std::vector<MemberPattern> patterns;
  while (!heap.empty() &&
         static_cast<int>(patterns.size()) < max_patterns) {
    const State state = heap.top();
    heap.pop();
    MemberPattern pattern;
    pattern.cut = base;
    for (std::size_t f : state.flips) {
      const std::size_t member = order[f];
      pattern.cut[member] = !pattern.cut[member];
    }
    pattern.probability = state.probability;
    patterns.push_back(std::move(pattern));

    // Each flip subset has exactly one parent (drop or decrement its largest
    // element), so pushing "append next index" and "replace the largest
    // element with the next index" generates every subset exactly once.
    // Ratios are sorted descending, so children never out-probability their
    // parent and the heap order is globally best-first.
    const std::size_t next = state.flips.empty() ? 0 : state.flips.back() + 1;
    if (next >= m) continue;
    State appended = state;
    appended.flips.push_back(next);
    appended.probability = state.probability * ratio[order[next]];
    if (appended.probability > 0.0) heap.push(std::move(appended));
    if (!state.flips.empty()) {
      State replaced = state;
      replaced.flips.back() = next;
      replaced.probability = state.probability * ratio[order[next]] /
                             ratio[order[state.flips.back()]];
      if (replaced.probability > 0.0) heap.push(std::move(replaced));
    }
  }
  return patterns;
}

}  // namespace

ScenarioSet generate_correlated_scenarios(
    const CorrelatedFailureModel& model,
    const CorrelatedScenarioOptions& options) {
  validate_correlated(model, options);
  const int n = model.num_fibers;

  // Base products shared by every outcome: no background cut anywhere, and
  // no event firing. Individual outcomes divide out the factors they change
  // (ratios are safe: background < 1 and event probability < 1 by
  // validation).
  double no_background = 1.0;
  for (double b : model.background) no_background *= 1.0 - b;
  double no_event = 1.0;
  for (const CutEvent& e : model.events) no_event *= 1.0 - e.probability;
  const double base = no_background * no_event;

  // Outcomes with the same failed set are disjoint (they differ in which
  // event fired / which pattern produced them), so their probabilities add.
  std::map<std::vector<int>, double> aggregated;
  double enumerated_total = 0.0;
  const auto add = [&](std::vector<int> failed, double probability) {
    if (probability <= 0.0) return;
    aggregated[std::move(failed)] += probability;
    enumerated_total += probability;
  };

  // Event-free branch: no failure, singles, and pairs among the top-K
  // background fibers.
  add({}, base);
  std::vector<double> ratio(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ratio[static_cast<std::size_t>(i)] =
        model.background[static_cast<std::size_t>(i)] /
        (1.0 - model.background[static_cast<std::size_t>(i)]);
  }
  if (options.max_background_failures >= 1) {
    for (int i = 0; i < n; ++i) {
      add({i}, base * ratio[static_cast<std::size_t>(i)]);
    }
  }
  if (options.max_background_failures >= 2 &&
      options.background_pair_candidates >= 2) {
    std::vector<int> risky(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) risky[static_cast<std::size_t>(i)] = i;
    std::sort(risky.begin(), risky.end(), [&](int a, int b) {
      const double pa = model.background[static_cast<std::size_t>(a)];
      const double pb = model.background[static_cast<std::size_t>(b)];
      if (pa != pb) return pa > pb;
      return a < b;
    });
    const int k = std::min<int>(options.background_pair_candidates, n);
    for (int x = 0; x < k; ++x) {
      for (int y = x + 1; y < k; ++y) {
        const int i = std::min(risky[static_cast<std::size_t>(x)],
                               risky[static_cast<std::size_t>(y)]);
        const int j = std::max(risky[static_cast<std::size_t>(x)],
                               risky[static_cast<std::size_t>(y)]);
        add({i, j}, base * ratio[static_cast<std::size_t>(i)] *
                        ratio[static_cast<std::size_t>(j)]);
      }
    }
  }

  // Event branches: exactly one event fires; its members follow the
  // conditional probabilities (likeliest patterns only), everyone else stays
  // quiet. The member background factors are divided out of `base` because
  // conditionals replace them.
  for (const CutEvent& event : model.events) {
    double members_quiet = 1.0;
    for (int f : event.fibers) {
      members_quiet *= 1.0 - model.background[static_cast<std::size_t>(f)];
    }
    const double event_base = base * event.probability /
                              (1.0 - event.probability) / members_quiet;
    const auto patterns =
        top_member_patterns(event.conditional, options.max_patterns_per_event);
    for (const MemberPattern& pattern : patterns) {
      std::vector<int> failed;
      for (std::size_t i = 0; i < pattern.cut.size(); ++i) {
        if (pattern.cut[i]) failed.push_back(event.fibers[i]);
      }
      add(std::move(failed), event_base * pattern.probability);
    }
  }

  std::vector<Candidate> candidates;
  candidates.reserve(aggregated.size());
  for (auto& [failed, probability] : aggregated) {
    candidates.push_back({failed, probability});
  }
  sort_candidates(candidates);
  return truncate_candidates(candidates, enumerated_total,
                             options.max_scenarios, options.target_mass);
}

ScenarioSet reduce_scenarios(const ScenarioSet& set,
                             const ReductionOptions& options,
                             ReductionReport* report) {
  if (options.max_scenarios < 1) {
    throw std::invalid_argument("reduction: max_scenarios must be >= 1");
  }
  if (!(options.target_mass > 0.0 && options.target_mass <= 1.0)) {
    throw std::invalid_argument("reduction: target_mass must be in (0, 1]");
  }
  if (!(options.impact_exponent >= 0.0)) {
    throw std::invalid_argument("reduction: impact_exponent must be >= 0");
  }

  // Rank by importance score with a pattern tie-break, so the reduced set is
  // a pure function of the scenario *contents*, not their input order.
  std::vector<std::size_t> rank(set.scenarios.size());
  std::vector<double> score(set.scenarios.size());
  for (std::size_t i = 0; i < set.scenarios.size(); ++i) {
    rank[i] = i;
    const auto& s = set.scenarios[i];
    score[i] = s.probability *
               std::pow(1.0 + static_cast<double>(s.failed().size()),
                        options.impact_exponent);
  }
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    // Ties keep the order of the failed sets as fiber masks: at the first
    // position where the lists differ, the larger id sorts first, and a list
    // that is a prefix of the other sorts first.
    const auto& fa = set.scenarios[a].failed();
    const auto& fb = set.scenarios[b].failed();
    return std::lexicographical_compare(fa.begin(), fa.end(), fb.begin(),
                                        fb.end(), std::greater<>());
  });

  ScenarioSet out;
  double covered = 0.0;
  bool mass_reached = false;
  int kept = 0;
  double dropped_mass = 0.0;
  int dropped = 0;
  for (std::size_t r = 0; r < rank.size(); ++r) {
    const FailureScenario& s = set.scenarios[rank[r]];
    // The no-failure scenario is always kept: it anchors most of the mass
    // and the optimizer's nominal (everything-up) row.
    const bool keep = s.failed().empty() ||
                      (!mass_reached && kept < options.max_scenarios);
    if (keep) {
      out.scenarios.push_back(s);
      covered += s.probability;
      ++kept;
      if (covered >= options.target_mass) mass_reached = true;
    } else {
      ++dropped;
      dropped_mass += s.probability;
    }
  }
  out.covered_probability = covered;
  out.dropped_scenarios = set.dropped_scenarios + dropped;
  out.residual_probability = set.residual_probability + dropped_mass;

  // Verify the covered + residual ≈ 1 identity — but only when the input
  // set carried consistent accounting (hand-built sets in older callers may
  // not fill residual_probability).
  double input_total = 0.0;
  for (const auto& s : set.scenarios) input_total += s.probability;
  const bool input_consistent =
      std::abs(input_total + set.residual_probability - 1.0) <= 1e-6;
  if (input_consistent &&
      std::abs(out.covered_probability + out.residual_probability - 1.0) >
          1e-6) {
    throw std::logic_error("scenario reduction: covered + residual != 1");
  }

  if (report != nullptr) {
    report->before = static_cast<int>(set.scenarios.size());
    report->after = static_cast<int>(out.scenarios.size());
    report->dropped = dropped;
    report->covered_before = set.covered_probability;
    report->covered_after = out.covered_probability;
    report->dropped_mass = dropped_mass;
  }
  return out;
}

std::vector<double> calibrated_probabilities(
    const std::vector<double>& static_probs,
    const std::vector<bool>& degraded,
    const std::vector<double>& predicted_probs, double alpha) {
  if (static_probs.size() != degraded.size() ||
      static_probs.size() != predicted_probs.size()) {
    throw std::invalid_argument("calibrated_probabilities: size mismatch");
  }
  std::vector<double> out(static_probs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = degraded[i] ? predicted_probs[i]
                         : (1.0 - alpha) * static_probs[i];
  }
  return out;
}

}  // namespace prete::te
