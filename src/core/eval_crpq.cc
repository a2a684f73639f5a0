#include "core/eval_crpq.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <unordered_set>

#include "automata/operations.h"
#include "core/eval_product.h"
#include "core/parallel.h"
#include "query/analysis.h"

namespace ecrpq {

bool CrpqFastPathApplies(const Query& query) {
  return CrpqFastPathApplies(query, Analyze(query));
}

bool CrpqFastPathApplies(const Query& query, const QueryAnalysis& analysis) {
  if (!query.linear_atoms().empty()) return false;
  return analysis.is_crpq && !analysis.has_relational_repetition;
}

std::vector<std::pair<NodeId, NodeId>> ReachabilityPairs(
    const GraphDb& graph,
    const std::vector<const RegularRelation*>& languages) {
  return ReachabilityPairs(graph, languages, *GraphIndex::Build(graph));
}

std::vector<std::pair<NodeId, NodeId>> ReachabilityPairs(
    const GraphDb& graph, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index) {
  return ReachabilityPairsDirected(
      graph, languages, index, /*sources=*/nullptr, /*targets=*/nullptr,
      SearchDirection::kForward, /*scan_stats=*/nullptr,
      /*meet_checks=*/nullptr, /*num_threads=*/1, /*cancel=*/nullptr,
      /*deterministic=*/true);
}

namespace {

// The intersected, ε-free, trimmed language NFA a scan simulates.
Nfa BuildScanLanguage(const GraphDb& graph,
                      const std::vector<const RegularRelation*>& languages) {
  Nfa lang = UniverseNfa(graph.alphabet().size());
  for (const RegularRelation* rel : languages) {
    ECRPQ_DCHECK(rel->arity() == 1);
    auto nfa = rel->ToLanguageNfa();
    ECRPQ_DCHECK(nfa.ok());
    lang = IntersectNfa(lang, nfa.value());
  }
  return Trim(RemoveEpsilons(lang));
}

// One anchor's BFS over (language state, node); `seen` is a reusable
// ls × |V| bitmap (reset here). Accepting product states yield `ends`.
// With `backward` the traversal walks in-edges (the caller passes the
// REVERSED language NFA, so accepting states are the forward-initial
// ones and `ends` collects path SOURCES). Polls `cancel` every few
// thousand expansions so even a single-anchor scan over a huge graph
// unwinds promptly (the caller treats the partial result as void once
// the token has tripped).
void ScanFromSource(const GraphDb& graph, const GraphIndex& index,
                    const Nfa& lang, const std::vector<StateId>& lang_initial,
                    NodeId start, bool backward, std::vector<bool>* seen,
                    std::set<NodeId>* ends, ReachabilityScanStats* stats,
                    CancellationToken* cancel) {
  seen->assign(static_cast<size_t>(lang.num_states()) * graph.num_nodes(),
               false);
  ends->clear();
  std::queue<std::pair<StateId, NodeId>> work;
  auto push = [&](StateId q, NodeId v) {
    if (stats != nullptr) ++stats->frontier_expansions;
    size_t key = static_cast<size_t>(q) * graph.num_nodes() + v;
    if (!(*seen)[key]) {
      (*seen)[key] = true;
      if (stats != nullptr) ++stats->visited_states;
      work.emplace(q, v);
      if (lang.IsAccepting(q)) ends->insert(v);
    }
  };
  for (StateId q : lang_initial) push(q, start);
  uint32_t since_poll = 0;
  while (!work.empty()) {
    if (cancel != nullptr && ++since_poll >= 2048) {
      since_poll = 0;
      if (cancel->cancelled()) return;
    }
    auto [q, v] = work.front();
    work.pop();
    // CSR label slices: touch only the neighbors carrying exactly the
    // letters the language state can read.
    for (const Nfa::Arc& arc : lang.ArcsFrom(q)) {
      std::span<const NodeId> slice =
          backward ? index.In(v, arc.first) : index.Out(v, arc.first);
      for (NodeId to : slice) push(arc.second, to);
    }
  }
}

// One (source, target) meet-in-the-middle reachability probe over
// (NFA state, node) configurations: a forward half-search over `lang`
// and out-edges, a backward half-search over `rlang` (the reversed NFA —
// same state ids) and in-edges, alternating on the smaller frontier.
// A meet is the same (state, node) configuration discovered by both
// sides: the forward prefix reaches state q at node v, and from (q, v)
// the backward-explored suffix reaches acceptance at the target. Either
// side exhausting first proves unreachability (every accepting run meets
// at all of its splits, including the opposite side's seed). Returns
// true when a path from `s` to `t` matches the language.
bool BidirectionalReachProbe(const GraphDb& graph, const GraphIndex& index,
                             const Nfa& lang, const Nfa& rlang, NodeId s,
                             NodeId t, std::vector<bool>* seen_f,
                             std::vector<bool>* seen_b,
                             ReachabilityScanStats* stats,
                             uint64_t* meet_checks, CancellationToken* cancel) {
  const size_t stride = graph.num_nodes();
  seen_f->assign(static_cast<size_t>(lang.num_states()) * stride, false);
  seen_b->assign(static_cast<size_t>(lang.num_states()) * stride, false);
  std::vector<std::pair<StateId, NodeId>> fr_f, fr_b, next;
  bool met = false;
  auto push = [&](bool fwd_side, StateId q, NodeId v,
                  std::vector<std::pair<StateId, NodeId>>* out) {
    if (stats != nullptr) ++stats->frontier_expansions;
    std::vector<bool>& seen = fwd_side ? *seen_f : *seen_b;
    std::vector<bool>& other = fwd_side ? *seen_b : *seen_f;
    const size_t key = static_cast<size_t>(q) * stride + v;
    if (seen[key]) return;
    seen[key] = true;
    if (stats != nullptr) ++stats->visited_states;
    if (meet_checks != nullptr) ++*meet_checks;
    if (other[key]) met = true;
    out->push_back({q, v});
  };
  for (StateId q : lang.InitialStates()) push(/*fwd_side=*/true, q, s, &fr_f);
  for (StateId q : rlang.InitialStates()) {
    push(/*fwd_side=*/false, q, t, &fr_b);
  }
  while (!met && !fr_f.empty() && !fr_b.empty()) {
    if (cancel != nullptr && cancel->cancelled()) return false;
    const bool step_fwd = fr_f.size() <= fr_b.size();
    std::vector<std::pair<StateId, NodeId>>& frontier =
        step_fwd ? fr_f : fr_b;
    const Nfa& stepper = step_fwd ? lang : rlang;
    next.clear();
    for (const auto& [q, v] : frontier) {
      if (met) break;
      for (const Nfa::Arc& arc : stepper.ArcsFrom(q)) {
        std::span<const NodeId> slice = step_fwd ? index.Out(v, arc.first)
                                                 : index.In(v, arc.first);
        for (NodeId to : slice) push(step_fwd, arc.second, to, &next);
      }
    }
    frontier.swap(next);
  }
  return met;
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> ReachabilityPairsDirected(
    const GraphDb& graph, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index, const std::vector<NodeId>* sources,
    const std::vector<NodeId>* targets, SearchDirection direction,
    ReachabilityScanStats* scan_stats, uint64_t* meet_checks,
    int num_threads, CancellationToken* cancel, bool deterministic) {
  // Intersect the language NFAs (over the base alphabet).
  Nfa lang = BuildScanLanguage(graph, languages);

  std::vector<std::pair<NodeId, NodeId>> out;
  if (lang.num_states() == 0) return out;

  // Safety degrade: a bidirectional sweep needs both anchor sets.
  if (direction == SearchDirection::kBidirectional &&
      (sources == nullptr || targets == nullptr)) {
    direction = targets != nullptr ? SearchDirection::kBackward
                                   : SearchDirection::kForward;
  }

  if (direction == SearchDirection::kBidirectional) {
    // One meet-in-the-middle probe per anchored (source, target) pair;
    // pairs are few by construction (the planner degrades large anchor
    // products to a one-sided sweep), so the probes run serially and the
    // output order is the pair enumeration order.
    Nfa rlang = Reverse(lang);
    std::vector<bool> seen_f, seen_b;
    for (NodeId s : *sources) {
      for (NodeId t : *targets) {
        if (cancel != nullptr && cancel->cancelled()) return out;
        if (BidirectionalReachProbe(graph, index, lang, rlang, s, t,
                                    &seen_f, &seen_b, scan_stats,
                                    meet_checks, cancel)) {
          out.emplace_back(s, t);
        }
      }
    }
    return out;
  }

  // One-sided sweep. Forward BFSes over (language state, node) per source
  // node (tagging product states with start nodes would square memory;
  // O(|V| · |lang| · |E|) per-anchor instead); backward runs the mirror
  // per TARGET node over the reversed NFA and in-edges, so a bound
  // target side costs one BFS instead of |V|.
  const bool backward = direction == SearchDirection::kBackward;
  const Nfa scan_lang = backward ? Reverse(lang) : std::move(lang);
  const std::vector<NodeId>* anchors = backward ? targets : sources;
  std::vector<StateId> scan_initial = scan_lang.InitialStates();
  const int num_anchors = (anchors != nullptr)
                              ? static_cast<int>(anchors->size())
                              : graph.num_nodes();
  auto anchor_of = [&](int s) -> NodeId {
    return (anchors != nullptr) ? (*anchors)[s] : s;
  };
  auto emit = [&](NodeId anchor, NodeId reached) {
    if (backward) {
      out.emplace_back(reached, anchor);
    } else {
      out.emplace_back(anchor, reached);
    }
  };

  const int lanes = std::min(std::max(num_threads, 1), num_anchors);
  if (lanes <= 1) {
    std::vector<bool> seen;
    std::set<NodeId> ends;
    for (int s = 0; s < num_anchors; ++s) {
      if (cancel != nullptr && cancel->cancelled()) break;
      ScanFromSource(graph, index, scan_lang, scan_initial, anchor_of(s),
                     backward, &seen, &ends, scan_stats, cancel);
      for (NodeId end : ends) emit(anchor_of(s), end);
    }
    return out;
  }

  // Morsel-parallel: per-anchor end-set slots, per-lane counters and seen
  // bitmaps. Deterministic mode concatenates the slots in anchor order
  // (bit-identical to the serial scan); otherwise lanes append finished
  // morsels in completion order under a lock.
  std::vector<std::set<NodeId>> slots(num_anchors);
  std::vector<ReachabilityScanStats> lane_stats(lanes);
  std::mutex out_mutex;
  const size_t grain =
      std::max<size_t>(1, static_cast<size_t>(num_anchors) / (lanes * 8));
  ParallelMorsels(
      lanes, num_anchors, grain, [&](size_t begin, size_t end, int lane_id) {
        std::vector<bool> seen;
        ReachabilityScanStats* ls =
            (scan_stats != nullptr) ? &lane_stats[lane_id] : nullptr;
        for (size_t s = begin; s < end; ++s) {
          if (cancel != nullptr && cancel->cancelled()) return;
          ScanFromSource(graph, index, scan_lang, scan_initial,
                         anchor_of(static_cast<int>(s)), backward, &seen,
                         &slots[s], ls, cancel);
        }
        if (!deterministic) {
          std::lock_guard<std::mutex> lock(out_mutex);
          for (size_t s = begin; s < end; ++s) {
            for (NodeId e : slots[s]) {
              emit(anchor_of(static_cast<int>(s)), e);
            }
            slots[s].clear();
          }
        }
      });
  if (deterministic) {
    for (int s = 0; s < num_anchors; ++s) {
      for (NodeId e : slots[s]) emit(anchor_of(s), e);
    }
  }
  if (scan_stats != nullptr) {
    for (const ReachabilityScanStats& ls : lane_stats) {
      scan_stats->frontier_expansions += ls.frontier_expansions;
      scan_stats->visited_states += ls.visited_states;
    }
  }
  return out;
}

namespace {

// One binary CQ atom r_i(u, v) with materialized pairs and hash indexes.
struct JoinAtom {
  ResolvedTerm from;
  ResolvedTerm to;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::multimap<NodeId, NodeId> by_from;
  std::multimap<NodeId, NodeId> by_to;
  std::set<std::pair<NodeId, NodeId>> pair_set;

  void Reindex() {
    by_from.clear();
    by_to.clear();
    pair_set.clear();
    for (const auto& [u, v] : pairs) {
      by_from.emplace(u, v);
      by_to.emplace(v, u);
      pair_set.emplace(u, v);
    }
  }
};

// Pair count below which the semi-join filter stays inline-serial — the
// same stay-inline rule as the binding-table join pipeline
// (kParallelJoinRows in core/ops.cc).
constexpr size_t kParallelSemiJoinPairs = 4096;

// Semi-join: keep pairs of `a` whose shared-variable value appears in `b`'s
// corresponding column. Returns true if `a` shrank. With num_threads > 1
// and enough pairs the filter runs morsel-parallel in two passes (per-pair
// keep flags, then a compaction preserving pair order), so the surviving
// pair sequence is identical to the serial filter's at any lane count.
bool SemiJoin(JoinAtom* a, const JoinAtom& b, int num_threads = 1) {
  // Determine shared variables between the two atoms' terms.
  auto var_of = [](const ResolvedTerm& t) { return t.is_const ? -1 : t.var; };
  int a_from = var_of(a->from), a_to = var_of(a->to);
  int b_from = var_of(b.from), b_to = var_of(b.to);

  auto b_from_values = [&]() {
    std::unordered_set<NodeId> values;
    for (const auto& [u, v] : b.pairs) {
      (void)v;
      values.insert(u);
    }
    return values;
  };
  auto b_to_values = [&]() {
    std::unordered_set<NodeId> values;
    for (const auto& [u, v] : b.pairs) {
      (void)u;
      values.insert(v);
    }
    return values;
  };

  // For each shared var position combination, filter.
  std::unordered_set<NodeId> bf, bt;
  bool need_bf = (b_from >= 0 && (b_from == a_from || b_from == a_to));
  bool need_bt = (b_to >= 0 && (b_to == a_from || b_to == a_to));
  if (need_bf) bf = b_from_values();
  if (need_bt) bt = b_to_values();
  if (!need_bf && !need_bt) return false;

  auto keeps = [&](const std::pair<NodeId, NodeId>& pair) {
    const auto& [u, v] = pair;
    if (b_from >= 0) {
      if (b_from == a_from && bf.find(u) == bf.end()) return false;
      if (b_from == a_to && bf.find(v) == bf.end()) return false;
    }
    if (b_to >= 0) {
      if (b_to == a_from && bt.find(u) == bt.end()) return false;
      if (b_to == a_to && bt.find(v) == bt.end()) return false;
    }
    return true;
  };

  const size_t n = a->pairs.size();
  std::vector<std::pair<NodeId, NodeId>> kept;
  if (num_threads > 1 && n >= kParallelSemiJoinPairs) {
    // Pass 1: morsel-parallel keep flags plus per-morsel survivor counts
    // (morsel boundaries depend only on n, never the lane count).
    constexpr size_t kGrain = 1024;
    const size_t num_morsels = (n + kGrain - 1) / kGrain;
    std::vector<uint8_t> keep(n, 0);
    std::vector<size_t> morsel_kept(num_morsels, 0);
    ParallelMorsels(num_threads, n, kGrain,
                    [&](size_t begin, size_t end, int /*lane*/) {
                      size_t count = 0;
                      for (size_t i = begin; i < end; ++i) {
                        if (keeps(a->pairs[i])) {
                          keep[i] = 1;
                          ++count;
                        }
                      }
                      morsel_kept[begin / kGrain] += count;
                    });
    // Pass 2: exclusive scan sizes one exact reservation; lanes compact
    // their morsels into disjoint slices, preserving pair order.
    std::vector<size_t> out_off(num_morsels + 1, 0);
    for (size_t m = 0; m < num_morsels; ++m) {
      out_off[m + 1] = out_off[m] + morsel_kept[m];
    }
    kept.resize(out_off[num_morsels]);
    ParallelMorsels(num_threads, num_morsels, 1,
                    [&](size_t mb, size_t me, int /*lane*/) {
                      for (size_t m = mb; m < me; ++m) {
                        const size_t lo = m * kGrain;
                        const size_t hi = std::min(lo + kGrain, n);
                        size_t o = out_off[m];
                        for (size_t i = lo; i < hi; ++i) {
                          if (keep[i]) kept[o++] = a->pairs[i];
                        }
                      }
                    });
  } else {
    kept.reserve(n);
    for (const auto& pair : a->pairs) {
      if (keeps(pair)) kept.push_back(pair);
    }
  }
  bool shrank = kept.size() < a->pairs.size();
  a->pairs = std::move(kept);
  return shrank;
}

}  // namespace

Status EvaluateCrpq(const GraphDb& graph, const Query& query,
                    const EvalOptions& options, ResultSink& sink,
                    EvalStats& stats, CompiledQueryPtr compiled,
                    GraphIndexPtr index) {
  auto resolved_or =
      ResolveQuery(graph, query, std::move(compiled), std::move(index));
  if (!resolved_or.ok()) return resolved_or.status();
  ResolvedQuery& rq = resolved_or.value();
  if (!CrpqFastPathApplies(query, rq.analysis())) {
    return Status::FailedPrecondition(
        "query is outside the CRPQ fast-path fragment (multi-ary relations, "
        "repeated path variables or linear atoms present)");
  }
  if (rq.index == nullptr) rq.index = GraphIndex::Build(graph);

  stats.engine = "crpq";

  const int num_threads = ResolveNumThreads(options.num_threads);
  CancellationToken* cancel = options.cancellation.get();

  // Build one JoinAtom per path atom with its language intersection —
  // the per-atom ReachabilityScan leaves of the physical plan. Each scan
  // runs its per-anchor BFSes morsel-parallel, in the direction the
  // atom's constants favor (the same rule the planner records): both
  // endpoints constant → one bidirectional meet probe; constant target
  // only → one backward BFS from it (instead of |V| forward BFSes);
  // otherwise the classic forward sweep. EvalOptions::direction forces a
  // direction; the auto rule engages only with the planner enabled so
  // the ECRPQ_NO_PLANNER ablation keeps the legacy forward path.
  std::vector<JoinAtom> atoms(rq.atoms.size());
  for (size_t i = 0; i < rq.atoms.size(); ++i) {
    atoms[i].from = rq.atoms[i].from;
    atoms[i].to = rq.atoms[i].to;
    std::vector<const RegularRelation*> languages;
    for (const ResolvedRelation& rel : rq.relations()) {
      if (rel.paths[0] == rq.atoms[i].path) {
        languages.push_back(rel.relation);
      }
    }
    const bool from_const = atoms[i].from.is_const;
    const bool to_const = atoms[i].to.is_const;
    SearchDirection dir = SearchDirection::kForward;
    if (options.direction != SearchDirection::kAuto) {
      dir = options.direction;
    } else if (options.use_planner) {
      if (from_const && to_const) {
        dir = SearchDirection::kBidirectional;
      } else if (to_const) {
        dir = SearchDirection::kBackward;
      }
    }
    std::vector<NodeId> anchor_sources, anchor_targets;
    const std::vector<NodeId>* sources = nullptr;
    const std::vector<NodeId>* targets = nullptr;
    if (dir == SearchDirection::kBidirectional) {
      if (from_const && to_const) {
        anchor_sources.push_back(atoms[i].from.node);
        anchor_targets.push_back(atoms[i].to.node);
        sources = &anchor_sources;
        targets = &anchor_targets;
      } else {
        dir = to_const ? SearchDirection::kBackward
                       : SearchDirection::kForward;
      }
    }
    if (dir == SearchDirection::kBackward && to_const) {
      anchor_targets.assign(1, atoms[i].to.node);
      targets = &anchor_targets;
    }
    if (dir == SearchDirection::kForward && from_const &&
        (options.use_planner || options.direction != SearchDirection::kAuto)) {
      // Constant source: one anchored forward BFS instead of the full
      // |V|-source sweep (the mirror of the constant-target backward
      // case; gated like the auto rule so ECRPQ_NO_PLANNER keeps the
      // legacy sweep).
      anchor_sources.assign(1, atoms[i].from.node);
      sources = &anchor_sources;
    }
    ReachabilityScanStats scan_stats;
    uint64_t meet_checks = 0;
    atoms[i].pairs = ReachabilityPairsDirected(
        graph, languages, *rq.index, sources, targets, dir,
        &scan_stats, &meet_checks, num_threads, cancel,
        options.deterministic);
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("query execution cancelled");
    }
    stats.arcs_explored += scan_stats.frontier_expansions;
    // Constants restrict immediately.
    std::vector<std::pair<NodeId, NodeId>> filtered;
    for (const auto& [u, v] : atoms[i].pairs) {
      if (atoms[i].from.is_const && u != atoms[i].from.node) continue;
      if (atoms[i].to.is_const && v != atoms[i].to.node) continue;
      // Same variable on both sides forces a loop pair.
      if (!atoms[i].from.is_const && !atoms[i].to.is_const &&
          atoms[i].from.var == atoms[i].to.var && u != v) {
        continue;
      }
      filtered.emplace_back(u, v);
    }
    atoms[i].pairs = std::move(filtered);
    OperatorStats op;
    op.op = "ReachabilityScan";
    op.detail = "atom " + std::to_string(i);
    op.rows_out = atoms[i].pairs.size();
    op.frontier_expansions = scan_stats.frontier_expansions;
    op.visited_configs = scan_stats.visited_states;
    op.meet_checks = meet_checks;
    op.direction = SearchDirectionName(dir);
    op.threads = num_threads;
    stats.operators.push_back(std::move(op));
    if (atoms[i].pairs.empty()) return Status::OK();  // empty answer
  }

  // Semi-join reduction to a fixpoint (Yannakakis on acyclic queries; a
  // sound filter otherwise) — the plan's SemiJoinFilter pass.
  if (options.use_semijoin_reduction) {
    OperatorStats op;
    op.op = "SemiJoinFilter";
    op.detail = "fixpoint";
    for (const JoinAtom& atom : atoms) op.rows_in += atom.pairs.size();
    bool changed = true;
    int rounds = 0;
    bool emptied = false;
    while (changed && rounds < static_cast<int>(atoms.size()) + 2) {
      changed = false;
      ++rounds;
      for (size_t i = 0; i < atoms.size() && !emptied; ++i) {
        for (size_t j = 0; j < atoms.size(); ++j) {
          if (i == j) continue;
          if (SemiJoin(&atoms[i], atoms[j], num_threads)) changed = true;
          if (atoms[i].pairs.empty()) {
            emptied = true;
            break;
          }
        }
      }
      if (emptied) break;
    }
    for (const JoinAtom& atom : atoms) op.rows_out += atom.pairs.size();
    stats.operators.push_back(std::move(op));
    if (emptied) return Status::OK();
  }

  // Early projection (the Yannakakis step that makes acyclic combined
  // complexity polynomial): a non-head variable occurring in exactly two
  // atom endpoints is eliminated by composing the two atoms; the composed
  // relation is projected (deduplicated) immediately, so intermediate
  // results stay <= |V|² instead of enumerating every embedding.
  if (options.use_semijoin_reduction) {
    std::set<int> head_vars;
    for (const NodeTerm& term : query.head_nodes()) {
      head_vars.insert(query.NodeVarIndex(term.name));
    }
    bool eliminated = true;
    while (eliminated && atoms.size() >= 2) {
      eliminated = false;
      // Occurrence positions of each variable: (atom index, is_from slot).
      std::map<int, std::vector<std::pair<int, bool>>> where;
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (!atoms[i].from.is_const) {
          where[atoms[i].from.var].push_back({static_cast<int>(i), true});
        }
        if (!atoms[i].to.is_const) {
          where[atoms[i].to.var].push_back({static_cast<int>(i), false});
        }
      }
      for (const auto& [var, slots] : where) {
        if (head_vars.count(var) || slots.size() != 2) continue;
        auto [ia, a_is_from] = slots[0];
        auto [ib, b_is_from] = slots[1];
        if (ia == ib) continue;  // both endpoints of one atom: keep
        JoinAtom& a = atoms[ia];
        JoinAtom& b = atoms[ib];
        // Match a's var-slot value with b's; output the other endpoints.
        std::multimap<NodeId, NodeId> b_by_shared;  // shared -> other
        for (const auto& [u, v] : b.pairs) {
          b_by_shared.emplace(b_is_from ? u : v, b_is_from ? v : u);
        }
        std::set<std::pair<NodeId, NodeId>> composed;
        for (const auto& [u, v] : a.pairs) {
          NodeId shared = a_is_from ? u : v;
          NodeId other_a = a_is_from ? v : u;
          auto [lo, hi] = b_by_shared.equal_range(shared);
          for (auto it = lo; it != hi; ++it) {
            composed.insert({other_a, it->second});
          }
        }
        OperatorStats op;
        op.op = "HashJoin";
        op.detail = "eliminate " + query.node_variables()[var];
        op.rows_in = a.pairs.size() + b.pairs.size();
        op.rows_out = composed.size();
        stats.operators.push_back(std::move(op));
        if (composed.empty()) return Status::OK();  // no embeddings at all
        JoinAtom merged;
        merged.from = a_is_from ? a.to : a.from;
        merged.to = b_is_from ? b.to : b.from;
        merged.pairs.assign(composed.begin(), composed.end());
        // Replace atom ia by the composition, drop atom ib.
        atoms[ia] = std::move(merged);
        atoms.erase(atoms.begin() + ib);
        eliminated = true;
        break;  // occurrence map is stale; recompute
      }
    }
  }
  for (JoinAtom& atom : atoms) atom.Reindex();

  // Backtracking join over atoms; prefer atoms with bound variables.
  // Each new head projection streams into the sink immediately; a false
  // return stops the whole search (limit / exists pushdown).
  const int num_vars = static_cast<int>(query.node_variables().size());
  std::vector<NodeId> binding(num_vars, -1);
  std::vector<bool> used(atoms.size(), false);
  HeadTupleEmitter emitter(rq, options, sink);
  bool stop = false;

  auto head_projection = [&]() {
    std::vector<NodeId> head;
    for (const NodeTerm& term : query.head_nodes()) {
      head.push_back(binding[query.NodeVarIndex(term.name)]);
    }
    ++stats.join_tuples;
    if (!emitter.Emit(head)) stop = true;
  };

  std::function<void(int)> recurse = [&](int depth) {
    if (stop) return;
    if (cancel != nullptr && cancel->cancelled()) {
      stop = true;
      return;
    }
    if (depth == static_cast<int>(atoms.size())) {
      head_projection();
      return;
    }
    // Choose the most-bound unused atom.
    int best = -1, best_score = -1;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      int score = 0;
      if (atoms[i].from.is_const || binding[atoms[i].from.var] >= 0) ++score;
      if (atoms[i].to.is_const || binding[atoms[i].to.var] >= 0) ++score;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    JoinAtom& atom = atoms[best];
    used[best] = true;
    auto from_val = [&]() -> NodeId {
      return atom.from.is_const ? atom.from.node : binding[atom.from.var];
    };
    auto to_val = [&]() -> NodeId {
      return atom.to.is_const ? atom.to.node : binding[atom.to.var];
    };
    NodeId u = from_val(), v = to_val();

    auto try_pair = [&](NodeId pu, NodeId pv) {
      if (stop) return;
      std::vector<std::pair<int, NodeId>> bound;
      bool ok = true;
      if (!atom.from.is_const) {
        if (binding[atom.from.var] < 0) {
          binding[atom.from.var] = pu;
          bound.emplace_back(atom.from.var, pu);
        } else if (binding[atom.from.var] != pu) {
          ok = false;
        }
      }
      if (ok && !atom.to.is_const) {
        if (binding[atom.to.var] < 0) {
          binding[atom.to.var] = pv;
          bound.emplace_back(atom.to.var, pv);
        } else if (binding[atom.to.var] != pv) {
          ok = false;
        }
      }
      if (ok) recurse(depth + 1);
      for (const auto& [var, node] : bound) {
        (void)node;
        binding[var] = -1;
      }
    };

    if (u >= 0 && v >= 0) {
      if (atom.pair_set.count({u, v})) try_pair(u, v);
    } else if (u >= 0) {
      auto [lo, hi] = atom.by_from.equal_range(u);
      for (auto it = lo; it != hi; ++it) try_pair(u, it->second);
    } else if (v >= 0) {
      auto [lo, hi] = atom.by_to.equal_range(v);
      for (auto it = lo; it != hi; ++it) try_pair(it->second, v);
    } else {
      for (const auto& [pu, pv] : atom.pairs) try_pair(pu, pv);
    }
    used[best] = false;
  };
  OperatorStats join_op;
  join_op.op = "HashJoin";
  join_op.detail = "backtracking";
  for (const JoinAtom& atom : atoms) join_op.rows_in += atom.pairs.size();
  const uint64_t joined_before = stats.join_tuples;
  recurse(0);
  join_op.rows_out = stats.join_tuples - joined_before;
  stats.operators.push_back(std::move(join_op));
  if (emitter.status().ok() && cancel != nullptr && cancel->cancelled() &&
      !emitter.stopped_by_sink()) {
    return Status::Cancelled("query execution cancelled");
  }
  return emitter.status();
}

Result<QueryResult> EvaluateCrpq(const GraphDb& graph, const Query& query,
                                 const EvalOptions& options) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateCrpq(graph, query, options, sink, stats);
  });
}

}  // namespace ecrpq
