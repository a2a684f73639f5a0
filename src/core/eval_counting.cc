#include "core/eval_counting.h"

#include <functional>
#include <map>
#include <set>

#include "core/eval_product.h"
#include "solver/parikh.h"

namespace ecrpq {

Status EvaluateCounting(const GraphDb& graph, const Query& query,
                        const EvalOptions& options, ResultSink& sink,
                        EvalStats& stats, CompiledQueryPtr compiled,
                        GraphIndexPtr index) {
  if (!query.head_paths().empty()) {
    return Status::FailedPrecondition(
        "the counting engine does not produce path outputs");
  }
  auto resolved_or =
      ResolveQuery(graph, query, std::move(compiled), std::move(index));
  if (!resolved_or.ok()) return resolved_or.status();
  if (resolved_or.value().index == nullptr) {
    resolved_or.value().index = GraphIndex::Build(graph);
  }
  // Reuse the compiled relations and the CSR index across every σ below.
  CompiledQueryPtr shared = resolved_or.value().compiled;
  GraphIndexPtr shared_index = resolved_or.value().index;

  stats.engine = "counting";
  // Polled per node assignment σ and inside each σ's branch & bound.
  const CancellationToken* cancel = options.cancellation.get();

  const int num_vars = static_cast<int>(query.node_variables().size());
  const int base = graph.alphabet().size();

  // Letter counters per (path variable, symbol) are indices into each ILP;
  // they are created per σ-attempt below.
  HeadTupleEmitter emitter(resolved_or.value(), options, sink);

  std::vector<NodeId> assignment(num_vars, -1);
  Status failure = Status::OK();
  bool stop = false;

  // The plan's LinearConstraintCheck operator: one ILP feasibility check
  // per enumerated node assignment σ; its counters are recorded once the
  // enumeration finishes.
  OperatorStats check_op;
  check_op.op = "LinearConstraintCheck";
  check_op.detail = std::to_string(query.linear_atoms().size()) +
                    " linear atoms";

  std::function<void(int)> enumerate = [&](int var) {
    if (!failure.ok() || stop) return;
    if (cancel != nullptr && cancel->cancelled()) {
      failure = Status::Cancelled("query execution cancelled");
      return;
    }
    if (var < num_vars) {
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        assignment[var] = v;
        enumerate(var + 1);
        if (!failure.ok() || stop) break;
      }
      assignment[var] = -1;
      return;
    }
    ++stats.start_assignments;

    // Build per-component product automata under σ.
    auto products_or = BuildComponentProducts(graph, query, options,
                                              assignment, shared,
                                              shared_index);
    if (!products_or.ok()) {
      failure = products_or.status();
      return;
    }

    // One shared ILP: counters c_{p,a} plus one flow encoding per
    // component.
    ParikhConstraintBuilder builder(options.parikh);
    const int64_t count_bound =
        options.parikh.max_flow_per_transition *
        std::max<int64_t>(1, graph.num_edges());
    std::vector<std::vector<int>> counter(query.path_variables().size());
    for (size_t p = 0; p < counter.size(); ++p) {
      counter[p].resize(base);
      for (Symbol a = 0; a < base; ++a) {
        counter[p][a] = builder.AddVariable(0, count_bound);
      }
    }
    // Counters that receive no arc contribution anywhere must be pinned to
    // zero, or the ILP could use them as free slack.
    std::vector<std::vector<bool>> counter_used(
        counter.size(), std::vector<bool>(base, false));
    for (const ComponentProductGraph& cpg : products_or.value()) {
      bool any_accepting = false;
      for (bool acc : cpg.accepting) any_accepting = any_accepting || acc;
      if (!any_accepting || cpg.num_states == 0) return;  // σ infeasible
      std::vector<int> initial, accepting;
      for (int s = 0; s < cpg.num_states; ++s) {
        if (cpg.initial[s]) initial.push_back(s);
        if (cpg.accepting[s]) accepting.push_back(s);
      }
      std::vector<
          std::tuple<int, int, std::vector<std::pair<int, int64_t>>>>
          arcs;
      arcs.reserve(cpg.arcs.size());
      for (const auto& [from, to, letters] : cpg.arcs) {
        std::vector<std::pair<int, int64_t>> contribs;
        for (size_t t = 0; t < letters.size(); ++t) {
          if (letters[t] == kPad) continue;
          contribs.emplace_back(counter[cpg.tracks[t]][letters[t]], 1);
          counter_used[cpg.tracks[t]][letters[t]] = true;
        }
        arcs.emplace_back(from, to, std::move(contribs));
      }
      Status st =
          builder.AddCountedGraph(cpg.num_states, initial, accepting, arcs);
      if (!st.ok()) {
        failure = st;
        return;
      }
    }
    for (size_t p = 0; p < counter.size(); ++p) {
      for (Symbol a = 0; a < base; ++a) {
        if (!counter_used[p][a]) {
          builder.AddConstraint({{{counter[p][a], 1}}, Cmp::kEq, 0});
        }
      }
    }
    // The query's linear rows: occ(p, a) -> c_{p,a}; len(p) -> Σ_a c_{p,a}.
    for (const LinearAtom& atom : query.linear_atoms()) {
      LinearConstraint c;
      for (const LinearTerm& term : atom.terms) {
        int p = query.PathVarIndex(term.path);
        if (term.symbol >= 0) {
          c.terms.emplace_back(counter[p][term.symbol], term.coef);
        } else {
          for (Symbol a = 0; a < base; ++a) {
            c.terms.emplace_back(counter[p][a], term.coef);
          }
        }
      }
      c.cmp = atom.cmp;
      c.rhs = atom.rhs;
      builder.AddConstraint(std::move(c));
    }
    stats.ilp_variables = builder.problem().num_variables();
    stats.ilp_constraints = builder.problem().constraints().size();

    ++check_op.rows_in;
    auto solution = builder.Solve(cancel);
    if (!solution.ok()) {
      failure = solution.status();
      return;
    }
    if (!solution.value().feasible) return;
    ++check_op.rows_out;

    std::vector<NodeId> head;
    for (const NodeTerm& term : query.head_nodes()) {
      head.push_back(assignment[query.NodeVarIndex(term.name)]);
    }
    if (!emitter.Emit(head)) stop = true;
  };
  enumerate(0);
  stats.operators.push_back(std::move(check_op));
  if (!failure.ok()) return failure;
  return emitter.status();
}

Result<QueryResult> EvaluateCounting(const GraphDb& graph, const Query& query,
                                     const EvalOptions& options) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateCounting(graph, query, options, sink, stats);
  });
}

}  // namespace ecrpq
