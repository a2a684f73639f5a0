#include "core/eval_bruteforce.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "core/eval_product.h"

namespace ecrpq {

Result<std::vector<GroundAnswer>> BruteForceAnswers(const GraphDb& graph,
                                                    const Query& query,
                                                    int max_len,
                                                    CompiledQueryPtr compiled,
                                                    GraphIndexPtr index) {
  auto resolved_or = ResolveQuery(graph, query, std::move(compiled));
  if (!resolved_or.ok()) return resolved_or.status();
  const ResolvedQuery& rq = resolved_or.value();

  if (index == nullptr) index = GraphIndex::Build(graph);
  const std::vector<Path> all_paths = EnumerateAllPaths(*index, max_len);
  const int num_path_vars = static_cast<int>(query.path_variables().size());
  const int num_node_vars = static_cast<int>(query.node_variables().size());

  std::vector<const Path*> assignment(num_path_vars, nullptr);
  std::set<std::pair<std::vector<NodeId>, std::vector<std::vector<int32_t>>>>
      seen;
  std::vector<GroundAnswer> out;

  auto path_code = [](const Path& p) {
    std::vector<int32_t> code;
    code.push_back(p.start());
    for (const auto& [label, to] : p.steps()) {
      code.push_back(label);
      code.push_back(to);
    }
    return code;
  };

  auto check = [&]() {
    // Derive node bindings from atom endpoints.
    std::vector<NodeId> binding(num_node_vars, -1);
    for (const ResolvedAtom& atom : rq.atoms) {
      const Path& p = *assignment[atom.path];
      if (atom.from.is_const) {
        if (atom.from.node != p.start()) return;
      } else {
        if (binding[atom.from.var] >= 0 &&
            binding[atom.from.var] != p.start()) {
          return;
        }
        binding[atom.from.var] = p.start();
      }
      if (atom.to.is_const) {
        if (atom.to.node != p.end()) return;
      } else {
        if (binding[atom.to.var] >= 0 && binding[atom.to.var] != p.end()) {
          return;
        }
        binding[atom.to.var] = p.end();
      }
    }
    // Relations.
    for (const ResolvedRelation& rel : rq.relations()) {
      std::vector<Word> labels;
      for (int p : rel.paths) labels.push_back(assignment[p]->Label());
      if (!rel.relation->Contains(labels)) return;
    }
    // Linear atoms.
    for (const LinearAtom& atom : query.linear_atoms()) {
      int64_t lhs = 0;
      for (const LinearTerm& term : atom.terms) {
        const Path& p = *assignment[query.PathVarIndex(term.path)];
        int64_t value;
        if (term.symbol < 0) {
          value = p.length();
        } else {
          value = 0;
          for (const auto& [label, to] : p.steps()) {
            (void)to;
            if (label == term.symbol) ++value;
          }
        }
        lhs += term.coef * value;
      }
      bool ok = (atom.cmp == Cmp::kLe && lhs <= atom.rhs) ||
                (atom.cmp == Cmp::kGe && lhs >= atom.rhs) ||
                (atom.cmp == Cmp::kEq && lhs == atom.rhs);
      if (!ok) return;
    }
    // Record the head projection.
    GroundAnswer answer;
    for (const NodeTerm& term : query.head_nodes()) {
      answer.nodes.push_back(binding[query.NodeVarIndex(term.name)]);
    }
    std::vector<std::vector<int32_t>> path_codes;
    for (const std::string& p : query.head_paths()) {
      const Path& path = *assignment[query.PathVarIndex(p)];
      answer.paths.push_back(path);
      path_codes.push_back(path_code(path));
    }
    if (seen.insert({answer.nodes, path_codes}).second) {
      out.push_back(std::move(answer));
    }
  };

  std::function<void(int)> recurse = [&](int var) {
    if (var == num_path_vars) {
      check();
      return;
    }
    for (const Path& p : all_paths) {
      assignment[var] = &p;
      recurse(var + 1);
    }
  };
  recurse(0);
  return out;
}

Status EvaluateBruteForce(const GraphDb& graph, const Query& query,
                          const EvalOptions& options, ResultSink& sink,
                          EvalStats& stats, CompiledQueryPtr compiled,
                          GraphIndexPtr index) {
  auto answers = BruteForceAnswers(graph, query, options.bruteforce_max_len,
                                   std::move(compiled), std::move(index));
  if (!answers.ok()) return answers.status();
  stats.engine = "bruteforce";
  if (options.cancellation != nullptr &&
      options.cancellation->cancelled()) {
    return Status::Cancelled("query execution cancelled");
  }

  std::set<std::vector<NodeId>> tuples;
  for (const GroundAnswer& answer : answers.value()) {
    if (tuples.insert(answer.nodes).second) {
      if (!sink.Emit(answer.nodes, nullptr)) break;
    }
  }
  return Status::OK();
}

Result<QueryResult> EvaluateBruteForce(const GraphDb& graph,
                                       const Query& query,
                                       const EvalOptions& options) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateBruteForce(graph, query, options, sink, stats);
  });
}

}  // namespace ecrpq
