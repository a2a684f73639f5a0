#include "core/reachability.h"

#include <algorithm>
#include <array>
#include <bit>

#include "automata/operations.h"
#include "core/parallel.h"

namespace ecrpq {

ScanLanguage BuildScanLanguage(
    int base_size, const std::vector<const RegularRelation*>& languages) {
  Nfa lang = UniverseNfa(base_size);
  for (const RegularRelation* rel : languages) {
    ECRPQ_DCHECK(rel->arity() == 1);
    auto nfa = rel->ToLanguageNfa();
    ECRPQ_DCHECK(nfa.ok());
    lang = IntersectNfa(lang, nfa.value());
  }
  Nfa forward = Trim(RemoveEpsilons(lang));
  Nfa reverse = Reverse(forward);
  return ScanLanguage{std::move(forward), std::move(reverse)};
}

namespace {

// Reused across a morsel's anchors: the visited bitmap, one row of
// `row_words` words per language state (bit v is node v), clear between
// scans, and the BFS queue, whose drained entries list the bits to clear.
struct ScanScratch {
  size_t row_words = 0;
  std::vector<uint64_t> seen;
  std::vector<std::pair<StateId, NodeId>> work;
};

// One anchor's BFS over (language state, node); accepting states yield
// `ends`, sorted and distinct. Ends outnumbering the words of the
// accepting states' bitmap rows are read off those rows in node order;
// fewer are sorted. While fewer bits are set than the bitmap has words,
// only the bits the drained queue lists are cleared, so a small scan
// costs its own expansions; past that the whole bitmap is cleared, and
// the queue drops drained entries once they outnumber the frontier.
// With `backward` it walks in-edges over the REVERSED language (`ends`
// are path sources). It polls `cancel` every few thousand expansions; a
// tripped token leaves a partial result the caller discards.
void ScanFromSource(const GraphDb& graph, const GraphIndex& index,
                    const Nfa& lang, const std::vector<StateId>& lang_initial,
                    const std::vector<StateId>& lang_accepting, NodeId start,
                    bool backward, ScanScratch* scratch,
                    std::vector<NodeId>* ends, ReachabilityScanStats* stats,
                    CancellationToken* cancel) {
  std::vector<uint64_t>& seen = scratch->seen;
  std::vector<std::pair<StateId, NodeId>>& work = scratch->work;
  if (seen.empty()) {
    scratch->row_words = (static_cast<size_t>(graph.num_nodes()) + 63) / 64;
    seen.assign(lang.num_states() * scratch->row_words, 0);
  }
  const size_t row_words = scratch->row_words;
  auto bit = [row_words](StateId q, NodeId v) {
    return static_cast<size_t>(q) * row_words * 64 + v;
  };
  ends->clear();
  work.clear();
  auto push = [&](StateId q, NodeId v) {
    if (stats != nullptr) ++stats->frontier_expansions;
    const size_t key = bit(q, v);
    uint64_t& word = seen[key >> 6];
    const uint64_t mask = uint64_t{1} << (key & 63);
    if ((word & mask) == 0) {
      word |= mask;
      if (stats != nullptr) ++stats->visited_states;
      work.emplace_back(q, v);
      if (lang.IsAccepting(q)) ends->push_back(v);
    }
  };
  for (StateId q : lang_initial) push(q, start);
  const size_t list_limit = seen.size() + 1;
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
  const bool from_rows = ends->size() > lang_accepting.size() * row_words;
  if (from_rows) {
    ends->clear();
    for (size_t w = 0; w < row_words; ++w) {
      uint64_t bits = 0;
      for (StateId q : lang_accepting) bits |= seen[q * row_words + w];
      for (; bits != 0; bits &= bits - 1) {
        ends->push_back(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  if (listed) {
    for (const auto& [q, v] : work) {
      const size_t key = bit(q, v);
      seen[key >> 6] &= ~(uint64_t{1} << (key & 63));
    }
  } else {
    seen.assign(seen.size(), 0);
  }
  if (!from_rows) {
    std::sort(ends->begin(), ends->end());
    ends->erase(std::unique(ends->begin(), ends->end()), ends->end());
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

RowBuffer ReachabilityPairsDirected(
    const GraphDb& graph, const ScanLanguage& language,
    const GraphIndex& index, const std::vector<NodeId>* sources,
    const std::vector<NodeId>* targets, SearchDirection direction,
    ReachabilityScanStats* scan_stats, uint64_t* meet_checks,
    int num_threads, CancellationToken* cancel) {
  RowBuffer out(2);
  if (language.forward.num_states() == 0) return out;

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
    std::vector<bool> seen_f, seen_b;
    for (NodeId s : *sources) {
      for (NodeId t : *targets) {
        if (cancel != nullptr && cancel->cancelled()) return out;
        if (BidirectionalReachProbe(graph, index, language.forward,
                                    language.reverse, s, t, &seen_f, &seen_b,
                                    scan_stats, meet_checks, cancel)) {
          out.push_back(std::array<NodeId, 2>{s, t});
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
  const Nfa& scan_lang = backward ? language.reverse : language.forward;
  const std::vector<NodeId>* anchors = backward ? targets : sources;
  const std::vector<StateId> scan_initial = scan_lang.InitialStates();
  std::vector<StateId> scan_accepting;
  for (StateId q = 0; q < scan_lang.num_states(); ++q) {
    if (scan_lang.IsAccepting(q)) scan_accepting.push_back(q);
  }
  const int num_anchors = (anchors != nullptr)
                              ? static_cast<int>(anchors->size())
                              : graph.num_nodes();
  auto anchor_of = [&](int s) -> NodeId {
    return (anchors != nullptr) ? (*anchors)[s] : s;
  };

  // Lanes claim morsels of anchors; each morsel's pairs go to its own
  // buffer, and the buffers are concatenated in anchor order, so the
  // output is the same at any lane count. One lane runs one morsel.
  const int lanes = std::max(1, std::min(num_threads, num_anchors));
  const size_t grain =
      std::max<size_t>(1, static_cast<size_t>(num_anchors) / (lanes * 8));
  std::vector<RowBuffer> morsels((num_anchors + grain - 1) / grain,
                                 RowBuffer(2));
  std::vector<ReachabilityScanStats> lane_stats(lanes);
  ParallelMorsels(
      lanes, num_anchors, grain, [&](size_t begin, size_t end, int lane_id) {
        ScanScratch scratch;
        std::vector<NodeId> ends;
        RowBuffer& rows = morsels[begin / grain];
        for (size_t s = begin; s < end; ++s) {
          if (cancel != nullptr && cancel->cancelled()) return;
          const NodeId anchor = anchor_of(static_cast<int>(s));
          ScanFromSource(graph, index, scan_lang, scan_initial,
                         scan_accepting, anchor, backward, &scratch, &ends,
                         &lane_stats[lane_id], cancel);
          for (NodeId reached : ends) {
            rows.push_back(backward ? std::array<NodeId, 2>{reached, anchor}
                                    : std::array<NodeId, 2>{anchor, reached});
          }
        }
      });
  for (RowBuffer& rows : morsels) {
    if (out.empty()) {
      out = std::move(rows);
    } else {
      out.Append(rows);
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

}  // namespace ecrpq
