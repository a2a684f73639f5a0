#include "api/prepared_query.h"

#include <algorithm>

#include "api/database.h"
#include "query/builder.h"

namespace ecrpq {

Engine PreparedQuery::engine() const {
  return SelectEngine(plan_->query, db_->eval_options().engine);
}

PhysicalPlanPtr PreparedQuery::PlanForIndex(GraphIndexPtr index) const {
  std::lock_guard<std::mutex> lock(plan_->memo_mutex);
  if (plan_->physical == nullptr || plan_->physical_index.lock() != index) {
    plan_->physical = std::make_shared<PhysicalPlan>(PlanQuery(
        plan_->query, *plan_->compiled, *index, db_->eval_options()));
    plan_->physical_index = index;
  }
  return plan_->physical;
}

PhysicalPlanPtr PreparedQuery::plan() const {
  return PlanForIndex(db_->graph_index());
}

Explanation PreparedQuery::Explain() const {
  Explanation out;
  out.plan = plan();
  out.engine = out.plan->engine;
  out.engine_name = EngineName(out.engine);
  out.analysis = plan_->compiled->analysis.Describe();
  out.plan_text = out.plan->Describe(plan_->query);
  out.optimizer_report = plan_->optimizer_report;
  return out;
}

std::string Explanation::ToString() const {
  std::string out = plan_text;
  out += "analysis: " + analysis + "\n";
  std::string report = optimizer_report.Describe();
  if (!report.empty()) out += "optimizer: " + report + "\n";
  return out;
}

EvalOptions PreparedQuery::EffectiveOptions(const ExecuteOptions& exec) const {
  EvalOptions options = db_->eval_options();
  if (exec.engine.has_value()) options.engine = *exec.engine;
  if (exec.build_path_answers.has_value()) {
    options.build_path_answers = *exec.build_path_answers;
  }
  if (exec.num_threads.has_value()) options.num_threads = *exec.num_threads;
  if (exec.cancellation != nullptr) options.cancellation = exec.cancellation;
  return options;
}

Result<std::shared_ptr<const Query>> PreparedQuery::BindParams(
    const Params& params) const {
  const Query& query = plan_->query;

  // Reject bindings for parameters the query does not have.
  for (const auto& [name, node] : params.bindings()) {
    (void)node;
    const auto& known = query.parameter_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("query has no parameter '$" + name +
                                     "'");
    }
  }
  if (!query.has_parameters()) {
    // Share the plan's query (aliasing: the plan keeps it alive).
    return std::shared_ptr<const Query>(plan_, &plan_->query);
  }

  // Every parameter must be bound, to a node that exists.
  const GraphDb& graph = db_->graph();
  for (const std::string& name : query.parameter_names()) {
    auto it = params.bindings().find(name);
    if (it == params.bindings().end()) {
      return Status::FailedPrecondition("parameter '$" + name +
                                        "' is unbound");
    }
    if (!graph.FindNode(it->second).has_value()) {
      return Status::NotFound("parameter '$" + name +
                              "' is bound to unknown node '" + it->second +
                              "'");
    }
  }

  // Rebuild the query with parameters substituted by node constants. The
  // structure (variables, path variables, relation atoms) is unchanged, so
  // the plan's compiled relations and analysis stay valid.
  auto substitute = [&](const NodeTerm& term) {
    if (!term.is_parameter) return term;
    return NodeTerm::Const(params.bindings().at(term.name));
  };
  QueryBuilder builder;
  for (const PathAtom& atom : query.path_atoms()) {
    builder.Atom(substitute(atom.from), atom.path, substitute(atom.to));
  }
  for (const RelationAtom& atom : query.relation_atoms()) {
    builder.Relation(atom.relation, atom.paths, atom.name);
  }
  for (const LinearAtom& atom : query.linear_atoms()) {
    builder.Linear(atom);
  }
  std::vector<std::string> head_nodes;
  for (const NodeTerm& term : query.head_nodes()) {
    head_nodes.push_back(term.name);
  }
  builder.Head(std::move(head_nodes), query.head_paths());
  auto bound = builder.Build();
  if (!bound.ok()) return bound.status();
  return std::make_shared<const Query>(std::move(bound).value());
}

Result<ResultCursor> PreparedQuery::Execute(const Params& params,
                                            ExecuteOptions exec) const {
  // Pin one snapshot (graph + index) for parameter binding and planning;
  // the cursor re-pins at Run time (it holds the read guard for the
  // engine run, so a MutateGraph between Execute and the first Next only
  // delays the cursor, never races it).
  auto read_lock = db_->ReadLock();
  auto bound = BindParams(params);
  if (!bound.ok()) return bound.status();
  GraphIndexPtr index = db_->graph_index();
  // The cached physical plan is structural (components, ordering,
  // estimates), so it survives parameter substitution; an engine override
  // invalidates it for this execution (the engine replans on the fly).
  PhysicalPlanPtr physical =
      exec.engine.has_value() ? nullptr : PlanForIndex(index);
  return ResultCursor(db_, &db_->graph(), std::move(index),
                      EffectiveOptions(exec), exec.limit, exec.deadline,
                      std::move(bound).value(), plan_->compiled,
                      std::move(physical),
                      plan_->optimizer_report.proven_empty);
}

Result<QueryResult> PreparedQuery::ExecuteAll(const Params& params) const {
  // Hold the session's read guard for the whole engine run: concurrent
  // ExecuteAll calls share it, MutateGraph waits for them.
  auto read_lock = db_->ReadLock();
  auto bound = BindParams(params);
  if (!bound.ok()) return bound.status();
  if (plan_->optimizer_report.proven_empty) {
    EvalStats stats;
    stats.engine = "static-empty";
    return QueryResult({}, {}, std::move(stats));
  }
  Evaluator evaluator(&db_->graph(), EffectiveOptions({}));
  GraphIndexPtr index = db_->graph_index();
  evaluator.set_graph_index(index);
  PhysicalPlanPtr physical = PlanForIndex(std::move(index));
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return evaluator.Evaluate(*bound.value(), sink, stats, plan_->compiled,
                              physical.get());
  });
}

Result<bool> PreparedQuery::Exists(const Params& params) const {
  ExecuteOptions exec;
  exec.limit = 1;
  auto cursor = Execute(params, exec);
  if (!cursor.ok()) return cursor.status();
  bool found = cursor.value().exists();
  if (!cursor.value().status().ok()) return cursor.value().status();
  return found;
}

}  // namespace ecrpq
