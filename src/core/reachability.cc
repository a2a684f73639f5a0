#include "core/reachability.h"

#include <algorithm>

#include "automata/operations.h"
#include "core/parallel.h"

namespace ecrpq {

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
      /*meet_checks=*/nullptr, /*num_threads=*/1, /*cancel=*/nullptr);
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

// Reused across one lane's anchors: the ls × |V| visited bitmap, all
// clear between scans, and the scan's BFS queue, which keeps its drained
// entries as the list of bits to clear (see ScanFromSource).
struct ScanScratch {
  std::vector<bool> seen;
  std::vector<std::pair<StateId, NodeId>> work;
};

// One anchor's BFS over (language state, node). Accepting product states
// yield `ends`, sorted and distinct. While the scan has set fewer bits
// than the bitmap has 64-bit words, the drained queue lists them and
// only those are cleared, so a small scan costs its own expansions, not
// ls × |V|. Past that, clearing the whole bitmap is cheaper, and drained
// entries are dropped once they outnumber the frontier, so the queue
// (kept across anchors) holds at most a bitmap's bytes, or a frontier's
// worth, of drained entries.
// With `backward` the traversal walks in-edges (the caller passes the
// REVERSED language NFA, so accepting states are the forward-initial
// ones and `ends` collects path SOURCES). Polls `cancel` every few
// thousand expansions so even a single-anchor scan over a huge graph
// unwinds promptly (the caller treats the partial result as void once
// the token has tripped).
void ScanFromSource(const GraphDb& graph, const GraphIndex& index,
                    const Nfa& lang, const std::vector<StateId>& lang_initial,
                    NodeId start, bool backward, ScanScratch* scratch,
                    std::vector<NodeId>* ends, ReachabilityScanStats* stats,
                    CancellationToken* cancel) {
  std::vector<bool>& seen = scratch->seen;
  std::vector<std::pair<StateId, NodeId>>& work = scratch->work;
  const size_t stride = graph.num_nodes();
  if (seen.empty()) seen.assign(lang.num_states() * stride, false);
  ends->clear();
  work.clear();
  auto push = [&](StateId q, NodeId v) {
    if (stats != nullptr) ++stats->frontier_expansions;
    const size_t key = static_cast<size_t>(q) * stride + v;
    if (!seen[key]) {
      seen[key] = true;
      if (stats != nullptr) ++stats->visited_states;
      work.emplace_back(q, v);
      if (lang.IsAccepting(q)) ends->push_back(v);
    }
  };
  for (StateId q : lang_initial) push(q, start);
  const size_t list_limit = seen.size() / 64 + 1;
  bool listed = true;  // work[0, head) lists every bit set so far
  uint32_t since_poll = 0;
  for (size_t head = 0; head < work.size(); ++head) {
    if (cancel != nullptr && ++since_poll >= 2048) {
      since_poll = 0;
      if (cancel->cancelled()) break;
    }
    if (head >= list_limit && 2 * head >= work.size()) {
      work.erase(work.begin(), work.begin() + head);
      head = 0;
      listed = false;
    }
    const auto [q, v] = work[head];
    // CSR label slices: touch only the neighbors carrying exactly the
    // letters the language state can read.
    for (const Nfa::Arc& arc : lang.ArcsFrom(q)) {
      std::span<const NodeId> slice =
          backward ? index.In(v, arc.first) : index.Out(v, arc.first);
      for (NodeId to : slice) push(arc.second, to);
    }
  }
  if (listed) {
    for (const auto& [q, v] : work) {
      seen[static_cast<size_t>(q) * stride + v] = false;
    }
  } else {
    seen.assign(seen.size(), false);
  }
  std::sort(ends->begin(), ends->end());
  ends->erase(std::unique(ends->begin(), ends->end()), ends->end());
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
    int num_threads, CancellationToken* cancel) {
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
    ScanScratch scratch;
    std::vector<NodeId> ends;
    for (int s = 0; s < num_anchors; ++s) {
      if (cancel != nullptr && cancel->cancelled()) break;
      ScanFromSource(graph, index, scan_lang, scan_initial, anchor_of(s),
                     backward, &scratch, &ends, scan_stats, cancel);
      for (NodeId end : ends) emit(anchor_of(s), end);
    }
    return out;
  }

  // Morsel-parallel: per-anchor end-set slots and per-lane counters and
  // seen bitmaps; the slots are concatenated in anchor order, so the
  // output is identical to the serial scan's.
  std::vector<std::vector<NodeId>> slots(num_anchors);
  std::vector<ReachabilityScanStats> lane_stats(lanes);
  const size_t grain =
      std::max<size_t>(1, static_cast<size_t>(num_anchors) / (lanes * 8));
  ParallelMorsels(
      lanes, num_anchors, grain, [&](size_t begin, size_t end, int lane_id) {
        ScanScratch scratch;
        ReachabilityScanStats* ls =
            (scan_stats != nullptr) ? &lane_stats[lane_id] : nullptr;
        for (size_t s = begin; s < end; ++s) {
          if (cancel != nullptr && cancel->cancelled()) return;
          ScanFromSource(graph, index, scan_lang, scan_initial,
                         anchor_of(static_cast<int>(s)), backward, &scratch,
                         &slots[s], ls, cancel);
        }
      });
  for (int s = 0; s < num_anchors; ++s) {
    for (NodeId e : slots[s]) emit(anchor_of(s), e);
  }
  if (scan_stats != nullptr) {
    for (const ReachabilityScanStats& ls : lane_stats) {
      scan_stats->frontier_expansions += ls.frontier_expansions;
      scan_stats->visited_states += ls.visited_states;
    }
  }
  return out;
}

}  // namespace ecrpq
