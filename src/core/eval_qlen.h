// The length-abstraction engine (Lemma 6.6 / Theorem 6.7).
//
// Q_len replaces every relation R of an ECRPQ by R_len — the relation that
// only constrains component *lengths*. Our engine exploits the abstraction
// structurally: edge labels are erased from the graph (every track advances
// a unary automaton) and every relation is replaced by its pad-profile
// automaton over a one-letter base alphabet. The REI-style PSPACE-hard
// instances of Theorem 6.3 collapse to polynomial size under this
// abstraction, reproducing the PSPACE → NP drop of Figure 1(a).
//
// The arithmetic-progression machinery of the paper's proof (Claim 6.7.1/2)
// is also implemented: path-length sets between node pairs decompose into
// Chrobak progressions (automata/unary.h), and the equal-length fragment is
// decided purely arithmetically (progression intersection via CRT).

#ifndef ECRPQ_CORE_EVAL_QLEN_H_
#define ECRPQ_CORE_EVAL_QLEN_H_

#include "core/evaluator.h"
#include "solver/progression.h"

namespace ecrpq {

/// Evaluates Q_len(G): the query with every relation replaced by its
/// length abstraction, streaming distinct tuples into `sink`. Head path
/// variables are not supported (lengths do not determine paths); node
/// heads and Boolean queries are. Edges are read from `index`, a
/// snapshot of `graph` (built here when null); `graph` gives names and
/// counts only, so it may be a catalog without out-lists.
Status EvaluateQlen(const GraphDb& graph, const Query& query,
                    const EvalOptions& options, ResultSink& sink,
                    EvalStats& stats, CompiledQueryPtr compiled = nullptr,
                    GraphIndexPtr index = nullptr);

/// Materializing convenience wrapper (sorted tuples).
Result<QueryResult> EvaluateQlen(const GraphDb& graph, const Query& query,
                                 const EvalOptions& options);

/// The set of lengths of paths from `from` to `to` whose label lies in
/// `language` (null = all paths), as arithmetic progressions.
SemilinearSet1D PathLengthSet(const GraphDb& graph, NodeId from, NodeId to,
                              const RegularRelation* language = nullptr);

/// Intersection of two semilinear sets (pairwise progression intersection
/// via gcd/CRT). Exposed for the equal-length decision fragment and tests.
SemilinearSet1D IntersectSemilinear(const SemilinearSet1D& a,
                                    const SemilinearSet1D& b);

}  // namespace ecrpq

#endif  // ECRPQ_CORE_EVAL_QLEN_H_
