#include "planner/join_planner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace sjsel {
namespace {

int PopCount(unsigned mask) { return __builtin_popcount(mask); }

// Pair (i, j), i < j, flattened to its index in the (i,j)-ordered pair
// list: all pairs with first index 0 come first, then first index 1, ...
size_t PairIndex(size_t i, size_t j, size_t k) {
  // Pairs before row i: i*k - i*(i+1)/2. Within row i: j - i - 1.
  return i * k - i * (i + 1) / 2 + (j - i - 1);
}

// Estimated cardinality of joining every dataset in `mask` under the
// clique independence model: the product of input sizes times the
// product of all in-mask pairwise selectivities.
double SubsetCardinality(unsigned mask, const std::vector<size_t>& sizes,
                         const std::vector<PairSelectivity>& pairs,
                         size_t k) {
  double card = 1.0;
  for (size_t i = 0; i < k; ++i) {
    if ((mask >> i) & 1u) card *= static_cast<double>(sizes[i]);
  }
  for (size_t i = 0; i < k; ++i) {
    if (((mask >> i) & 1u) == 0) continue;
    for (size_t j = i + 1; j < k; ++j) {
      if (((mask >> j) & 1u) == 0) continue;
      card *= pairs[PairIndex(i, j, k)].selectivity;
    }
  }
  return card;
}

// One DP cell: the best plan found for a subset of inputs.
struct SubPlan {
  double cost = 0.0;      ///< sum of intermediate cardinalities in subtree
  int left_mask = 0;      ///< 0 for leaves; else the left child subset
  bool solved = false;
};

// Renders the chosen subtree for `mask` and appends its joins (bottom-up,
// left first) to `steps`.
std::string EmitSteps(unsigned mask, const std::vector<SubPlan>& best,
                      const std::vector<std::string>& names,
                      const std::vector<double>& cards,
                      std::vector<PlanStep>* steps) {
  if (PopCount(mask) == 1) {
    return names[static_cast<size_t>(__builtin_ctz(mask))];
  }
  const unsigned left = static_cast<unsigned>(best[mask].left_mask);
  const unsigned right = mask & ~left;
  const std::string left_expr = EmitSteps(left, best, names, cards, steps);
  const std::string right_expr = EmitSteps(right, best, names, cards, steps);
  PlanStep step;
  step.left = left_expr;
  step.right = right_expr;
  step.output_cardinality = cards[mask];
  steps->push_back(std::move(step));
  return "(" + left_expr + " * " + right_expr + ")";
}

// Exhaustive bushy DP over subsets (Selinger-style, clique join graph):
// best(S) = min over splits S = L ∪ R of best(L) + best(R) + card(S).
// Deterministic tie-break: the smaller left-child mask wins, and the left
// child always contains the lowest-indexed dataset of its subset.
void PlanDp(const std::vector<size_t>& sizes,
            const std::vector<PairSelectivity>& pairs, size_t k,
            const std::vector<std::string>& names, MultiJoinPlan* plan) {
  const unsigned full = (1u << k) - 1u;
  std::vector<double> cards(full + 1, 0.0);
  std::vector<SubPlan> best(full + 1);
  for (unsigned mask = 1; mask <= full; ++mask) {
    cards[mask] = SubsetCardinality(mask, sizes, pairs, k);
    if (PopCount(mask) == 1) {
      best[mask].solved = true;
      continue;
    }
    const unsigned low_bit = mask & (~mask + 1u);
    SubPlan cell;
    // Enumerate proper submasks containing the lowest set bit (each
    // unordered split visited exactly once, sides canonically assigned).
    for (unsigned sub = (mask - 1u) & mask; sub != 0;
         sub = (sub - 1u) & mask) {
      if ((sub & low_bit) == 0) continue;
      const unsigned rest = mask & ~sub;
      const double cost = best[sub].cost + best[rest].cost + cards[mask];
      if (!cell.solved || cost < cell.cost ||
          (cost == cell.cost &&
           sub < static_cast<unsigned>(cell.left_mask))) {
        cell.cost = cost;
        cell.left_mask = static_cast<int>(sub);
        cell.solved = true;
      }
    }
    best[mask] = cell;
  }
  plan->algorithm = "dp";
  plan->cost = best[full].cost;
  plan->tree = EmitSteps(full, best, names, cards, &plan->steps);
}

// Greedy fallback beyond the DP limit: repeatedly join the two subtrees
// whose combined subset has the smallest estimated cardinality.
// Deterministic tie-break: lowest pair of subtree positions.
void PlanGreedy(const std::vector<size_t>& sizes,
                const std::vector<PairSelectivity>& pairs, size_t k,
                const std::vector<std::string>& names, MultiJoinPlan* plan) {
  struct Tree {
    unsigned mask;
    std::string expr;
  };
  std::vector<Tree> forest;
  for (size_t i = 0; i < k; ++i) {
    forest.push_back(Tree{1u << i, names[i]});
  }
  double total_cost = 0.0;
  while (forest.size() > 1) {
    size_t best_p = 0;
    size_t best_q = 1;
    double best_card = 0.0;
    bool found = false;
    for (size_t p = 0; p < forest.size(); ++p) {
      for (size_t q = p + 1; q < forest.size(); ++q) {
        const double card = SubsetCardinality(forest[p].mask | forest[q].mask,
                                              sizes, pairs, k);
        if (!found || card < best_card) {
          best_card = card;
          best_p = p;
          best_q = q;
          found = true;
        }
      }
    }
    PlanStep step;
    step.left = forest[best_p].expr;
    step.right = forest[best_q].expr;
    step.output_cardinality = best_card;
    plan->steps.push_back(std::move(step));
    total_cost += best_card;
    forest[best_p] = Tree{forest[best_p].mask | forest[best_q].mask,
                          "(" + forest[best_p].expr + " * " +
                              forest[best_q].expr + ")"};
    forest.erase(forest.begin() + static_cast<long>(best_q));
  }
  plan->algorithm = "greedy";
  plan->cost = total_cost;
  plan->tree = forest[0].expr;
}

}  // namespace

bool MultiJoinPlan::degraded() const {
  for (const PairSelectivity& pair : pairs) {
    if (!pair.degradation_reason.empty()) return true;
  }
  return false;
}

Status CheckPlanInputs(const std::vector<PlannerInput>& inputs) {
  if (inputs.size() < 2) {
    return Status::InvalidArgument("plan needs at least two datasets");
  }
  if (inputs.size() > 24) {
    return Status::InvalidArgument("plan supports at most 24 datasets");
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].dataset == nullptr) {
      return Status::InvalidArgument("null dataset");
    }
    if (inputs[i].label.empty()) {
      return Status::InvalidArgument("plan inputs need non-empty labels");
    }
    for (size_t j = 0; j < i; ++j) {
      if (inputs[j].label == inputs[i].label) {
        return Status::InvalidArgument("duplicate dataset label '" +
                                       inputs[i].label + "'");
      }
    }
  }
  return Status::OK();
}

Result<MultiJoinPlan> PlanFromPairEstimates(
    const std::vector<PlannerInput>& inputs,
    const std::vector<Result<EstimateResult>>& pair_estimates,
    const PlannerOptions& options) {
  SJSEL_TRACE_SPAN("planner.search", "k=%zu", inputs.size());
  SJSEL_METRIC_INC("planner.plans");
  SJSEL_RETURN_IF_ERROR(CheckPlanInputs(inputs));
  const size_t k = inputs.size();
  if (pair_estimates.size() != k * (k - 1) / 2) {
    return Status::InvalidArgument("plan over " + std::to_string(k) +
                                   " inputs needs " +
                                   std::to_string(k * (k - 1) / 2) +
                                   " pair estimates");
  }
  MultiJoinPlan plan;
  for (const PlannerInput& input : inputs) {
    plan.inputs.push_back(input.label);
  }
  size_t idx = 0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j, ++idx) {
      const Result<EstimateResult>& result = pair_estimates[idx];
      if (!result.ok()) {
        return Status(result.status().code(),
                      "pair " + plan.inputs[i] + " * " + plan.inputs[j] +
                          ": " + result.status().message());
      }
      const EstimateResult& est = *result;
      // Each input's size is its validated rect count, the N the pairs'
      // selectivities divide by; row 0 holds every input once.
      if (i == 0) {
        if (j == 1) plan.input_sizes.push_back(est.validation_a.Kept());
        plan.input_sizes.push_back(est.validation_b.Kept());
      }
      PairSelectivity pair;
      pair.i = i;
      pair.j = j;
      pair.estimated_pairs = est.outcome.estimated_pairs;
      pair.selectivity = est.outcome.selectivity;
      pair.rung = est.rung;
      pair.rung_label = est.rung_label;
      pair.degradation_reason = est.degradation_reason;
      pair.clamped = est.clamped;
      plan.pairs.push_back(std::move(pair));
      SJSEL_METRIC_INC("planner.pairs.estimated");
      if (est.degraded()) SJSEL_METRIC_INC("planner.pairs.degraded");
    }
  }

  const int dp_limit = std::min(options.dp_limit, 16);
  if (k <= static_cast<size_t>(std::max(dp_limit, 2))) {
    PlanDp(plan.input_sizes, plan.pairs, k, plan.inputs, &plan);
  } else {
    PlanGreedy(plan.input_sizes, plan.pairs, k, plan.inputs, &plan);
  }
  if (plan.degraded()) SJSEL_METRIC_INC("planner.plans.degraded");
  return plan;
}

Result<MultiJoinPlan> PlanMultiJoin(const std::vector<PlannerInput>& inputs,
                                    const PlannerOptions& options) {
  SJSEL_TRACE_SPAN("planner.plan", "k=%zu threads=%d", inputs.size(),
                   options.threads);
  SJSEL_METRIC_SCOPED_LATENCY("planner.plan_us");
  SJSEL_RETURN_IF_ERROR(CheckPlanInputs(inputs));
  const size_t k = inputs.size();

  // Every pairwise selectivity, from the guarded chain over inputs each
  // validated once. Pair order (and therefore all downstream output) is
  // fixed by index; threads only change who computes which pair.
  std::vector<std::pair<size_t, size_t>> pair_ids;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) pair_ids.emplace_back(i, j);
  }
  const GuardedEstimator estimator(options.estimator);
  std::vector<Result<EstimateResult>> results(
      pair_ids.size(), Status::Internal("pair estimate not run"));
  {
    SJSEL_TRACE_SPAN("planner.pair_estimates", "pairs=%zu",
                     pair_ids.size());
    std::vector<Result<PreparedInput>> prepared;
    for (const PlannerInput& input : inputs) {
      prepared.push_back(
          PrepareInput(*input.dataset, options.estimator.policy));
    }
    std::unique_ptr<ThreadPool> pool;
    if (options.threads > 1) {
      pool = std::make_unique<ThreadPool>(options.threads);
    }
    ParallelFor(pool.get(), static_cast<int64_t>(pair_ids.size()), 1,
                [&](int64_t, int64_t begin, int64_t end) {
                  for (size_t idx = static_cast<size_t>(begin);
                       idx < static_cast<size_t>(end); ++idx) {
                    const auto [i, j] = pair_ids[idx];
                    SJSEL_TRACE_SPAN("planner.pair_estimate", "i=%zu j=%zu",
                                     i, j);
                    // Input i's error first, as Estimate(a, b) reports a's.
                    if (!prepared[i].ok()) {
                      results[idx] = prepared[i].status();
                    } else if (!prepared[j].ok()) {
                      results[idx] = prepared[j].status();
                    } else {
                      results[idx] =
                          estimator.Estimate(*prepared[i], *prepared[j]);
                    }
                  }
                });
  }
  return PlanFromPairEstimates(inputs, results, options);
}

std::string RenderPlanText(const MultiJoinPlan& plan) {
  std::string out;
  out += "datasets             : " + std::to_string(plan.inputs.size()) + "\n";
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    out += "  " + plan.inputs[i] + " (" +
           std::to_string(plan.input_sizes[i]) + " rects)\n";
  }
  out += "pair estimates:\n";
  for (const PairSelectivity& pair : plan.pairs) {
    out += "  " + plan.inputs[pair.i] + " * " + plan.inputs[pair.j] +
           " : pairs=" + FormatDouble(pair.estimated_pairs, 1) +
           " sel=" + FormatDouble(pair.selectivity, 6) +
           " rung=" + EstimatorRungName(pair.rung);
    if (pair.clamped) out += " clamped";
    out += "\n";
    if (!pair.degradation_reason.empty()) {
      out += "    degradation_reason : " + pair.degradation_reason + "\n";
    }
  }
  out += "plan                 : " + plan.tree + "\n";
  out += "steps:\n";
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    out += "  " + std::to_string(s + 1) + ": " + plan.steps[s].left + " * " +
           plan.steps[s].right + " -> " +
           FormatDouble(plan.steps[s].output_cardinality, 1) + " rows\n";
  }
  out += "plan cost            : " + FormatDouble(plan.cost, 1) + "\n";
  out += "algorithm            : " + plan.algorithm + "\n";
  return out;
}

JsonValue PlanJson(const MultiJoinPlan& plan) {
  JsonValue root = JsonValue::Object();
  JsonValue inputs = JsonValue::Array();
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    inputs.Append(JsonValue::Object()
                      .Set("name", JsonValue::String(plan.inputs[i]))
                      .Set("n", JsonValue::Int(static_cast<long long>(
                                    plan.input_sizes[i]))));
  }
  root.Set("inputs", std::move(inputs));
  JsonValue pairs = JsonValue::Array();
  for (const PairSelectivity& pair : plan.pairs) {
    pairs.Append(
        JsonValue::Object()
            .Set("a", JsonValue::String(plan.inputs[pair.i]))
            .Set("b", JsonValue::String(plan.inputs[pair.j]))
            .Set("estimated_pairs", JsonValue::Number(pair.estimated_pairs))
            .Set("selectivity", JsonValue::Number(pair.selectivity))
            .Set("rung", JsonValue::String(EstimatorRungName(pair.rung)))
            .Set("rung_label", JsonValue::String(pair.rung_label))
            .Set("degradation_reason",
                 JsonValue::String(pair.degradation_reason))
            .Set("clamped", JsonValue::Bool(pair.clamped)));
  }
  root.Set("pairs", std::move(pairs));
  root.Set("tree", JsonValue::String(plan.tree));
  JsonValue steps = JsonValue::Array();
  for (const PlanStep& step : plan.steps) {
    steps.Append(JsonValue::Object()
                     .Set("left", JsonValue::String(step.left))
                     .Set("right", JsonValue::String(step.right))
                     .Set("output_cardinality",
                          JsonValue::Number(step.output_cardinality)));
  }
  root.Set("steps", std::move(steps));
  root.Set("cost", JsonValue::Number(plan.cost));
  root.Set("algorithm", JsonValue::String(plan.algorithm));
  root.Set("degraded", JsonValue::Bool(plan.degraded()));
  return root;
}

std::string RenderPlanJson(const MultiJoinPlan& plan) {
  return PlanJson(plan).Dump();
}

}  // namespace sjsel
