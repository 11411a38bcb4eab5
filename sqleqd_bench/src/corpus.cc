// Seeded corpora with known answers.
//
// Positive pairs are (variant, its base) from workload/generator: Σ-equivalent
// under set semantics by construction, and under bag and bag-set semantics
// only when the variant's transform chain is all `rename` (an isomorphic
// copy). Negative pairs are cross-class pairs for which the canonical
// database of one query's chase (checked to satisfy Σ and to be set valued)
// gives the two queries different set answers under db/eval; such a pair is
// not equivalent under any of the three semantics (on a set-valued database
// the bag answers' core sets are the set answers).
#include <algorithm>
#include <unordered_set>

#include "bench.h"
#include "chase/chase_cache.h"
#include "chase/chase_plan.h"
#include "db/database.h"
#include "db/satisfaction.h"
#include "reformulation/candb.h"
#include "service/protocol.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sqleqd_bench {
namespace {

using sqleq::Database;
using sqleq::Result;
using sqleq::Rng;
using sqleq::Status;
namespace workload = sqleq::workload;

constexpr Semantics kRotation[] = {Semantics::kSet, Semantics::kBag,
                                   Semantics::kBagSet};

bool RenameOnly(const std::string& chain) {
  size_t start = 0;
  while (start <= chain.size()) {
    size_t end = chain.find('+', start);
    if (end == std::string::npos) end = chain.size();
    if (chain.compare(start, end - start, "rename") != 0) return false;
    start = end + 1;
  }
  return true;
}

bool HasRedundantAtoms(const std::string& chain) {
  return chain.find("fk-unfold") != std::string::npos ||
         chain.find("selfjoin") != std::string::npos;
}

bool Distinguishes(const Database& db, const ConjunctiveQuery& a,
                   const ConjunctiveQuery& b) {
  Result<sqleq::Bag> ra = sqleq::Evaluate(a, db, Semantics::kSet);
  Result<sqleq::Bag> rb = sqleq::Evaluate(b, db, Semantics::kSet);
  return ra.ok() && rb.ok() && !(*ra == *rb);
}

/// Whether a chased canonical database proves a ≢ b. Under set semantics
/// a ⋢_Σ b exactly when b misses a's frozen head on the canonical database
/// of chase(a), so a pair that is not Σ-equivalent is told apart by the
/// database of one of its queries.
bool Distinguishable(const ConjunctiveQuery& a, const ConjunctiveQuery& b,
                     const sqleq::ChasePlan& plan, const workload::SchemaTemplate& tmpl) {
  for (const ConjunctiveQuery* source : {&a, &b}) {
    std::optional<Database> db = ChasedCanonicalDatabase(*source, plan, tmpl);
    if (db.has_value() && Distinguishes(*db, a, b)) return true;
  }
  return false;
}

Item MakeItem(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2, Semantics s,
              bool equivalent) {
  return Item{q1, q2, q1.ToString(), q2.ToString(), s, equivalent};
}

/// Generation knobs per workload: tpch at join depth 4–8 for the checks,
/// warehouse at depth 1–3 for reformulate.
workload::WorkloadOptions GeneratorOptions(WorkloadKind kind, uint64_t seed,
                                           size_t queries) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_queries = queries;
  if (kind == WorkloadKind::kReformulate) {
    options.schema_template = "warehouse";
    options.overlap_rate = 0.75;
    options.min_join_depth = 1;
    options.max_join_depth = 3;
  } else {
    options.schema_template = "tpch";
    options.overlap_rate = 0.5;
    options.min_join_depth = 4;
    options.max_join_depth = 8;
  }
  return options;
}

/// `quota` elements of `pool` spread evenly over its order by `cost` (ties
/// keep pool order), so a sample has nearly the population's cost
/// distribution whatever the seed. Returns fewer when the pool is smaller.
template <typename T, typename Cost>
std::vector<T> QuantileSample(std::vector<T> pool, size_t quota, Cost cost) {
  if (pool.size() <= quota) return pool;
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < pool.size(); ++i) order.emplace_back(cost(pool[i]), i);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<T> out;
  for (size_t k = 0; k < quota; ++k) {
    out.push_back(pool[order[(2 * k + 1) * pool.size() / (2 * quota)].second]);
  }
  return out;
}

/// Check pairs from one generated workload. Each base query is used by at
/// most one pair and pairs whose canonical keys were already taken are
/// skipped, so no canonical query key is shared by two pairs (a rename pair
/// shares one key inside its pair). With
/// `all_semantics`, a pair whose answer is known under S, B and BS yields
/// one item per semantics; otherwise it takes the next semantics of the
/// rotation. Pairs with a set-only answer are sent under set semantics.
void CheckPairs(const workload::Workload& w, bool all_semantics, size_t wanted_pairs,
                uint64_t seed, Corpus* out) {
  Rng rng(seed ^ 0x5eedda7aULL);
  const sqleq::ChasePlan plan(w.schema.catalog.sigma, Semantics::kSet, w.schema.catalog.schema);
  std::vector<bool> base_used(w.queries.size(), false);
  std::unordered_set<std::string> used_keys;
  auto keys_fresh = [&](const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    std::string ka = sqleq::CanonicalQueryKey(a);
    std::string kb = sqleq::CanonicalQueryKey(b);
    if (used_keys.count(ka) > 0 || used_keys.count(kb) > 0) return false;
    used_keys.insert(ka);
    used_keys.insert(kb);
    return true;
  };
  struct Pair {
    size_t q1, q2;
    bool equivalent;
    bool any_semantics;
  };
  std::vector<Pair> pairs;
  // Positives: the first variant of each class.
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const workload::WorkloadQuery& wq = w.queries[i];
    if (!wq.is_variant || wq.transform == "isomorphic-dup" || base_used[wq.class_id]) {
      continue;
    }
    if (!keys_fresh(wq.query, w.queries[wq.class_id].query)) continue;
    base_used[wq.class_id] = true;
    pairs.push_back({i, wq.class_id, true, RenameOnly(wq.transform)});
  }
  // Negatives: the remaining bases, paired in order, kept when a
  // distinguishing database turns up.
  size_t pending = SIZE_MAX;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (w.queries[i].is_variant || base_used[i]) continue;
    if (pending == SIZE_MAX) {
      pending = i;
      continue;
    }
    const size_t a = pending;
    pending = SIZE_MAX;
    const ConjunctiveQuery& qa = w.queries[a].query;
    const ConjunctiveQuery& qb = w.queries[i].query;
    if (!Distinguishable(qa, qb, plan, w.schema)) continue;
    if (!keys_fresh(qa, qb)) continue;
    pairs.push_back({a, i, false, true});
  }
  rng.Shuffle(&pairs);
  if (all_semantics) {
    // The working set takes a fixed number of pairs of each answer class
    // (rename positives, other positives, negatives), spread evenly over
    // the class's pairs ordered by chased size (what a memo hit's cost
    // grows with), so every seed's working set costs about the same.
    auto chased_size = [&](const Pair& p) {
      double size = 0;
      for (size_t q : {p.q1, p.q2}) {
        Result<sqleq::ChaseOutcome> out = plan.Run(w.queries[q].query);
        size += out.ok() ? static_cast<double>(out->result.size()) : 0;
      }
      return size;
    };
    std::vector<Pair> classes[3];
    for (const Pair& p : pairs) classes[!p.equivalent ? 2 : p.any_semantics ? 0 : 1].push_back(p);
    pairs.clear();
    for (std::vector<Pair>& cls : classes) {
      for (const Pair& p : QuantileSample(std::move(cls), wanted_pairs / 3, chased_size)) {
        pairs.push_back(p);
      }
    }
    if (pairs.size() < wanted_pairs) return;  // BuildCorpus reports the shortfall
  } else if (pairs.size() > wanted_pairs) {
    pairs.resize(wanted_pairs);
  }
  size_t rotation = 0;
  for (const Pair& p : pairs) {
    ++(p.equivalent ? out->positives : out->negatives);
    const ConjunctiveQuery& q1 = w.queries[p.q1].query;
    const ConjunctiveQuery& q2 = w.queries[p.q2].query;
    if (!p.any_semantics) {
      out->items.push_back(MakeItem(q1, q2, Semantics::kSet, p.equivalent));
    } else if (all_semantics) {
      for (Semantics s : kRotation) out->items.push_back(MakeItem(q1, q2, s, p.equivalent));
    } else {
      out->items.push_back(MakeItem(q1, q2, kRotation[rotation++ % 3], p.equivalent));
    }
  }
}

}  // namespace

std::optional<Database> ChasedCanonicalDatabase(const ConjunctiveQuery& q,
                                                const sqleq::ChasePlan& plan,
                                                const workload::SchemaTemplate& tmpl) {
  Result<sqleq::ChaseOutcome> chased = plan.Run(q);
  if (!chased.ok() || chased->failed) return std::nullopt;
  Result<sqleq::CanonicalDatabase> canonical =
      sqleq::BuildCanonicalDatabase(chased->result, tmpl.catalog.schema);
  if (!canonical.ok()) return std::nullopt;
  Result<bool> sat = sqleq::Satisfies(canonical->database, tmpl.catalog.sigma);
  if (!sat.ok() || !*sat || !canonical->database.IsSetValued()) return std::nullopt;
  return std::move(canonical->database);
}

std::string EncodeItem(WorkloadKind kind, const Item& item) {
  sqleq::service::RequestSpec spec(kind == WorkloadKind::kReformulate ? "reformulate"
                                                                      : "check");
  if (kind == WorkloadKind::kReformulate) {
    spec.Str("query", item.q1_text);
  } else {
    spec.Str("q1", item.q1_text).Str("q2", item.q2_text);
  }
  spec.Str("semantics", sqleq::service::SemanticsWireName(item.semantics));
  return sqleq::service::EncodeRequest(spec).value();
}

/// Pairs in the check_hot working set.
constexpr size_t kHotPairs = 270;

Result<Corpus> BuildCorpus(const WorkloadShape& shape, uint64_t seed) {
  Corpus corpus;
  Rng order(seed * 0x9e3779b97f4a7c15ULL + 17);
  if (shape.kind == WorkloadKind::kReformulate) {
    // A pool of variants carrying redundant FK-unfold / self-join atoms, so
    // C&B has a strictly smaller rewrite (at worst, the base) to find. The
    // pool keeps universal plans of at most kMaxPlanAtoms atoms: C&B cost
    // grows as 2^|U|, and the few larger plans made each seed's cost, and
    // the fresh-variable growth behind peak_rss_mb, hinge on how many of
    // them it drew. Within that, the pool is spread evenly over the
    // candidates' order by the chase steps C&B takes (the closest count to
    // its cost), so every seed sends the same cost mix.
    constexpr size_t kPool = 1200;
    constexpr size_t kCandidates = 2 * kPool;
    constexpr size_t kMaxPlanAtoms = 6;
    workload::WorkloadOptions options = GeneratorOptions(shape.kind, seed, 8 * kCandidates);
    SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, workload::GenerateWorkload(options));
    corpus.generated_queries = w.queries.size();
    sqleq::ChasePlan plan(w.schema.catalog.sigma, Semantics::kSet, w.schema.catalog.schema);
    std::vector<std::pair<size_t, double>> candidates;  // (query, C&B chase steps)
    for (size_t i = 0; i < w.queries.size() && candidates.size() < kCandidates; ++i) {
      const workload::WorkloadQuery& wq = w.queries[i];
      const ConjunctiveQuery& base = w.queries[wq.class_id].query;
      if (!wq.is_variant || !HasRedundantAtoms(wq.transform) ||
          wq.query.size() <= base.size()) {
        continue;
      }
      SQLEQ_ASSIGN_OR_RETURN(sqleq::ChaseOutcome universal, plan.Run(wq.query));
      if (universal.result.size() > kMaxPlanAtoms) continue;
      sqleq::MetricsRegistry work;
      sqleq::CandBOptions cb_options;
      cb_options.context.metrics = &work;
      SQLEQ_RETURN_IF_ERROR(sqleq::ChaseAndBackchase(wq.query, w.schema.catalog.sigma,
                                                     Semantics::kSet, w.schema.catalog.schema,
                                                     cb_options)
                                .status());
      candidates.emplace_back(
          i, static_cast<double>(work.counter(sqleq::metric::kChaseSteps).value()));
    }
    if (candidates.size() < kCandidates) {
      return Status::Internal("reformulate pool: only " + std::to_string(candidates.size()) +
                              " candidate queries");
    }
    for (const auto& [q, examined] :
         QuantileSample(std::move(candidates), kPool,
                        [](const std::pair<size_t, double>& c) { return c.second; })) {
      const workload::WorkloadQuery& wq = w.queries[q];
      corpus.items.push_back(
          MakeItem(wq.query, w.queries[wq.class_id].query, Semantics::kSet, true));
      ++corpus.positives;
    }
    corpus.tmpl = std::move(w.schema);
    // Whole passes over the pool, so every query is sent equally often.
    const size_t passes =
        std::max<size_t>(1, (shape.requests + corpus.items.size() / 2) / corpus.items.size());
    for (size_t i = 0; i < passes * corpus.items.size(); ++i) {
      corpus.sequence.push_back(i % corpus.items.size());
    }
    order.Shuffle(&corpus.sequence);
  } else {
    const bool hot = shape.kind == WorkloadKind::kCheckHot;
    // check_hot: a working set of a few hundred pairs, each under every
    // semantics its answer is known for, cycled through by the sequence.
    // check_cold: one item per request, no canonical key shared by two.
    const size_t wanted_pairs = hot ? kHotPairs : shape.requests;
    const size_t queries = hot ? kHotPairs * 8 : shape.requests * 3;
    workload::WorkloadOptions options = GeneratorOptions(shape.kind, seed, queries);
    SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, workload::GenerateWorkload(options));
    corpus.generated_queries = w.queries.size();
    CheckPairs(w, hot, wanted_pairs, seed, &corpus);
    corpus.tmpl = std::move(w.schema);
    if (corpus.positives + corpus.negatives < wanted_pairs) {
      return Status::Internal("corpus too small: " +
                              std::to_string(corpus.positives + corpus.negatives) +
                              " pairs for " + shape.name);
    }
    if (hot) {
      for (size_t i = 0; i < shape.requests; ++i) {
        corpus.sequence.push_back(i % corpus.items.size());
      }
      order.Shuffle(&corpus.sequence);
    } else {
      corpus.items.erase(corpus.items.begin() + static_cast<ptrdiff_t>(shape.requests),
                         corpus.items.end());
      for (size_t i = 0; i < shape.requests; ++i) corpus.sequence.push_back(i);
    }
  }
  // Canonical-key repeats across items (check_cold must have none).
  std::map<std::string, size_t> owner;
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    std::string k1 = sqleq::CanonicalQueryKey(corpus.items[i].q1);
    std::string k2 = sqleq::CanonicalQueryKey(corpus.items[i].q2);
    for (const std::string& k : {k1, k2}) {
      auto [it, inserted] = owner.emplace(k, i);
      if (!inserted && it->second != i) ++corpus.repeated_keys;
    }
  }
  for (size_t i = 0; i < corpus.items.size(); ++i) {
    // No request id: sqleqd replays settled responses by id, which would
    // let repeated check_hot requests skip the engine entirely.
    corpus.lines.push_back(EncodeItem(shape.kind, corpus.items[i]));
  }
  return corpus;
}

}  // namespace sqleqd_bench
