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

#include "core/evaluator.h"

namespace ecrpq {

/// Counters of one reachability scan (the ReachabilityScan operator's
/// share of EvalStats::operators).
struct ReachabilityScanStats {
  uint64_t frontier_expansions = 0;  ///< (state, node) frontier pushes
  uint64_t visited_states = 0;       ///< distinct (state, node) pairs
};

/// The per-atom reachability relation: all (u, v) pairs connected by a path
/// whose label lies in every language of `languages` (an intersection; the
/// empty list means Σ*), in (u, v) order. Exposed for tests. The
/// (language state, node) frontier expands through `index`'s CSR label
/// slices — only edges carrying a letter some language arc reads; the
/// overload without `index` builds one.
std::vector<std::pair<NodeId, NodeId>> ReachabilityPairs(
    const GraphDb& graph, const std::vector<const RegularRelation*>& languages);
std::vector<std::pair<NodeId, NodeId>> ReachabilityPairs(
    const GraphDb& graph, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index);

/// Direction-aware reachability scan (the ReachabilityScan leaf's
/// executable). kForward runs one BFS per source node (`targets` is
/// ignored — callers filter ends); `sources` (when non-null) restricts it
/// to paths starting at the listed nodes — the sideways-seeded form the
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
/// morsel-parallel: lanes claim anchor morsels off a shared cursor and
/// write each anchor's end set into its own slot; the slots are
/// concatenated in anchor order, making the output identical to the
/// serial scan's. `cancel` (optional) stops all lanes promptly; the
/// caller must treat the result as partial once the token has tripped.
std::vector<std::pair<NodeId, NodeId>> ReachabilityPairsDirected(
    const GraphDb& graph, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index, const std::vector<NodeId>* sources,
    const std::vector<NodeId>* targets, SearchDirection direction,
    ReachabilityScanStats* scan_stats, uint64_t* meet_checks,
    int num_threads, CancellationToken* cancel);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_REACHABILITY_H_
