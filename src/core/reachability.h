// Reachability scans: the primitive behind the ReachabilityScan leaf
// (core/ops.h) and the folklore CRPQ algorithm of Theorem 6.5.
//
// A path atom (x, L(π), y) whose relations are all unary reduces
// independently to the binary reachability relation
// r = { (u, v) : some path u→v has label in L }, computed by a BFS over
// the product of the graph with L's NFA. A CRPQ is then a relational
// conjunctive query over the r_i: PlanQuery gives it one ReachabilityScan
// leaf per atom (the all-scan plan), and ExecutePlan orders and seeds the
// scans, reduces the tables to a semi-join fixpoint and projects early
// (Yannakakis) before the final join, giving the PTIME combined
// complexity of Theorem 6.5 on acyclic queries.

#ifndef ECRPQ_CORE_REACHABILITY_H_
#define ECRPQ_CORE_REACHABILITY_H_

#include <vector>

#include "automata/nfa.h"
#include "core/evaluator.h"
#include "core/row_set.h"

namespace ecrpq {

/// The language one ReachabilityScan simulates: the intersection of a
/// path atom's unary languages over the base alphabet (Σ* for none),
/// ε-free and trimmed, and its reverse for backward and bidirectional
/// scans (same state ids). CompileQuery builds one per scannable path
/// variable (CompiledQuery::scan_languages), so executions reuse it.
struct ScanLanguage {
  Nfa forward;
  Nfa reverse;
};

ScanLanguage BuildScanLanguage(
    int base_size, const std::vector<const RegularRelation*>& languages);

/// Counters of one reachability scan (the ReachabilityScan operator's
/// share of EvalStats::operators).
struct ReachabilityScanStats {
  uint64_t frontier_expansions = 0;  ///< (state, node) frontier pushes
  uint64_t visited_states = 0;       ///< distinct (state, node) pairs
};

/// Direction-aware reachability scan (the ReachabilityScan leaf's
/// executable): the (source, target) rows, arity 2, of the pairs joined
/// by a path whose label is in `language`. The (language state, node)
/// frontier expands through `index`'s CSR label slices — only edges
/// carrying a letter some language arc reads. kForward runs one BFS per
/// source node (`targets` is ignored — callers filter ends), so its rows
/// come out sorted; `sources` (when non-null, sorted) restricts it to
/// paths starting at the listed nodes — the sideways-seeded form the
/// planner emits; null scans from every node. kBackward mirrors it: one
/// BFS per TARGET over the reversed intersection NFA and the graph's
/// in-edges (GraphIndex::In slices), emitting every
/// (source, target) pair whose path label lies in the intersection — one
/// backward BFS replaces |V| forward BFSes when only the target side is
/// anchored. kBidirectional (requires both `sources` and `targets`) runs
/// one meet-in-the-middle probe per (source, target) pair over
/// (NFA state, node) configurations, alternating on the smaller frontier
/// and stopping at the first meet; `meet_checks` (optional) counts the
/// opposite-side probes. `scan_stats` (optional) receives frontier
/// counters.
///
/// Bidirectional probes run serially per pair (anchored pairs are few).
/// With num_threads > 1 the forward/backward per-anchor BFSes run
/// morsel-parallel: each morsel of anchors fills its own row buffer, and
/// the buffers are concatenated in anchor order, so the output is the
/// serial scan's. `cancel` (optional) stops all lanes promptly; the
/// caller must treat the result as partial once the token has tripped.
RowBuffer ReachabilityPairsDirected(
    const GraphDb& graph, const ScanLanguage& language,
    const GraphIndex& index, const std::vector<NodeId>* sources,
    const std::vector<NodeId>* targets, SearchDirection direction,
    ReachabilityScanStats* scan_stats, uint64_t* meet_checks,
    int num_threads, CancellationToken* cancel);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_REACHABILITY_H_
