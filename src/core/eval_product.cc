#include "core/eval_product.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "automata/operations.h"
#include "core/ops.h"
#include "core/parallel.h"
#include "core/planner.h"

namespace ecrpq {

namespace {

// masks[s][tape]: bit c set iff some arc of `s` reads base letter c on
// `tape`; all-ones when the base alphabet exceeds 64 letters. The arcs of
// one state on one letter are adjacent in `arcs`, so each distinct letter
// of a state is decoded once.
std::vector<std::vector<uint64_t>> TapeMasks(const TupleAlphabet& ta,
                                             const ArcsBySymbol& arcs,
                                             int num_states) {
  const bool prune = ta.base_size() <= 64;
  std::vector<std::vector<uint64_t>> masks(
      num_states, std::vector<uint64_t>(ta.arity(), prune ? 0 : ~0ULL));
  if (!prune) return masks;
  for (StateId s = 0; s < num_states; ++s) {
    Symbol last = kEpsilon;
    for (const Nfa::Arc& arc : arcs.From(s)) {
      if (arc.first == last) continue;
      last = arc.first;
      for (int tape = 0; tape < ta.arity(); ++tape) {
        const Symbol letter = ta.Component(arc.first, tape);
        if (letter != kPad) masks[s][tape] |= 1ULL << letter;
      }
    }
  }
  return masks;
}

}  // namespace

Result<CompiledQueryPtr> CompileQuery(const Query& query, int base_size) {
  auto out = std::make_shared<CompiledQuery>();
  out->base_size = base_size;
  for (const RelationAtom& atom : query.relation_atoms()) {
    if (atom.relation->base_size() != base_size) {
      return Status::InvalidArgument(
          "relation '" + atom.name + "' is over a base alphabet of size " +
          std::to_string(atom.relation->base_size()) +
          " but the graph alphabet has size " + std::to_string(base_size));
    }
    ResolvedRelation rr;
    rr.relation = atom.relation.get();
    rr.nfa = RemoveEpsilons(atom.relation->nfa());
    rr.arcs = ArcsBySymbol(rr.nfa);
    rr.initial = rr.nfa.InitialStates();
    rr.accepting.resize(rr.nfa.num_states());
    for (StateId s = 0; s < rr.nfa.num_states(); ++s) {
      rr.accepting[s] = rr.nfa.IsAccepting(s);
    }
    // Reversed tape: Reverse preserves state ids, so the reversed arc
    // table, masks, and endpoint sets index the same states as the
    // forward ones (backward subsets intersect forward subsets at
    // bidirectional meets without any remapping).
    const Nfa rev = Reverse(rr.nfa);
    rr.rev_arcs = ArcsBySymbol(rev);
    rr.rev_initial = rev.InitialStates();
    rr.rev_accepting.resize(rev.num_states());
    for (StateId s = 0; s < rev.num_states(); ++s) {
      rr.rev_accepting[s] = rev.IsAccepting(s);
    }
    rr.tape_masks = TapeMasks(atom.relation->tuple_alphabet(), rr.arcs,
                              rr.nfa.num_states());
    rr.rev_tape_masks = TapeMasks(atom.relation->tuple_alphabet(),
                                  rr.rev_arcs, rev.num_states());
    for (const std::string& p : atom.paths) {
      rr.paths.push_back(query.PathVarIndex(p));
    }
    out->relations.push_back(std::move(rr));
  }
  // A path variable of one atom whose relations are all unary is a
  // ReachabilityScan leaf whenever it forms its own component.
  out->scan_languages.resize(query.path_variables().size());
  for (size_t p = 0; p < out->scan_languages.size(); ++p) {
    std::vector<const RegularRelation*> languages;
    bool unary = query.atoms_of_path()[p].size() == 1;
    for (const ResolvedRelation& rr : out->relations) {
      if (std::find(rr.paths.begin(), rr.paths.end(), p) == rr.paths.end()) {
        continue;
      }
      unary = unary && rr.relation->arity() == 1;
      languages.push_back(rr.relation);
    }
    if (unary) out->scan_languages[p] = BuildScanLanguage(base_size, languages);
  }
  out->analysis = Analyze(query);
  return CompiledQueryPtr(std::move(out));
}

Result<ResolvedQuery> ResolveQuery(const GraphDb& graph, const Query& query,
                                   CompiledQueryPtr compiled,
                                   GraphIndexPtr index) {
  ResolvedQuery out;
  out.graph = &graph;
  out.query = &query;
  out.index = std::move(index);

  auto resolve_term = [&](const NodeTerm& term) -> Result<ResolvedTerm> {
    ResolvedTerm r;
    if (term.is_parameter) {
      return Status::FailedPrecondition(
          "parameter '$" + term.name +
          "' is unbound; bind it before evaluation (Params)");
    }
    if (term.is_constant) {
      auto node = graph.FindNode(term.name);
      if (!node.has_value()) {
        return Status::NotFound("constant node '" + term.name +
                                "' not in graph");
      }
      r.is_const = true;
      r.node = *node;
    } else {
      r.var = query.NodeVarIndex(term.name);
      ECRPQ_DCHECK(r.var >= 0);
    }
    return r;
  };

  for (const PathAtom& atom : query.path_atoms()) {
    ResolvedAtom r;
    auto from = resolve_term(atom.from);
    if (!from.ok()) return from.status();
    auto to = resolve_term(atom.to);
    if (!to.ok()) return to.status();
    r.from = from.value();
    r.to = to.value();
    r.path = query.PathVarIndex(atom.path);
    out.atoms.push_back(r);
  }

  if (compiled != nullptr) {
    if (compiled->base_size != graph.alphabet().size()) {
      return Status::InvalidArgument(
          "compiled plan targets a base alphabet of size " +
          std::to_string(compiled->base_size) +
          " but the graph alphabet has size " +
          std::to_string(graph.alphabet().size()));
    }
    out.compiled = std::move(compiled);
  } else {
    auto built = CompileQuery(query, graph.alphabet().size());
    if (!built.ok()) return built.status();
    out.compiled = std::move(built).value();
  }
  return out;
}

HeadTupleEmitter::HeadTupleEmitter(const ResolvedQuery& rq,
                                   const EvalOptions& options,
                                   ResultSink& sink, bool heads_distinct)
    : rq_(rq),
      options_(options),
      sink_(sink),
      with_paths_(!rq.query->head_paths().empty() &&
                  options.build_path_answers),
      heads_distinct_(heads_distinct),
      seen_(rq.query->head_nodes().size()) {}

bool HeadTupleEmitter::Emit(const std::vector<NodeId>& head) {
  if (!heads_distinct_ && !seen_.Insert(head)) {
    return true;  // duplicate projection
  }
  bool keep_going;
  if (with_paths_) {
    auto answers = BuildPathAnswerSet(*rq_.graph, *rq_.query, options_, head,
                                      rq_.compiled, rq_.index);
    if (!answers.ok()) {
      status_ = answers.status();
      if (options_.cancellation != nullptr) options_.cancellation->Cancel();
      return false;
    }
    keep_going = sink_.Emit(head, &answers.value());
  } else {
    keep_going = sink_.Emit(head, nullptr);
  }
  if (!keep_going) {
    // Limit / exists pushdown: fan the stop out to every worker.
    stopped_by_sink_ = true;
    if (options_.cancellation != nullptr) options_.cancellation->Cancel();
  }
  return keep_going;
}

namespace {

// Runs the plan's leaves into binding tables, reduces them to a semi-join
// fixpoint, applies the early projection steps and streams the final
// join's distinct head tuples into `sink`. `rq.index` must be set.
Status ExecutePlan(const ResolvedQuery& rq, const EvalOptions& options,
                   const PhysicalPlan* plan, ResultSink& sink,
                   EvalStats& stats) {
  const Query& query = *rq.query;
  const GraphDb& graph = *rq.graph;

  // A caller-supplied plan (the prepared-query path) is used as-is when
  // it is a product plan; otherwise plan here with the engine forced — a
  // direct EvaluateProduct call on a query whose auto-selected engine
  // would differ must still get product-style component groups.
  PhysicalPlan local_plan;
  if (plan == nullptr || plan->engine != Engine::kProduct) {
    EvalOptions planning = options;
    planning.engine = Engine::kProduct;
    local_plan = PlanQuery(query, *rq.compiled, *rq.index, planning);
    plan = &local_plan;
  }

  // Execute component leaves in plan order, keeping one binding table per
  // component. Sideways information passing: when the planner marked a
  // component, its shared variables are seeded from the prior tables that
  // bind them (exact when one table binds them all; a sound superset of
  // the join projection otherwise — the final join re-enforces equality).
  // A runtime guard keeps seeding cheaper than the enumeration it
  // replaces (one search per seed row for ProductExpand, one seed-set
  // filter for a scan). Each leaf runs morsel-parallel on
  // the lanes the planner recorded for it (capped by the session's
  // resolved num_threads; 1 = the serial path).
  const int num_threads = ResolveNumThreads(options.num_threads);
  CancellationToken* cancel = options.cancellation.get();
  const double V = std::max(1, graph.num_nodes());
  constexpr size_t kMaxSeedRows = 1 << 16;
  std::vector<BindingTable> tables;
  const std::vector<NodeId> fixed(query.node_variables().size(), -1);
  for (const PlannedComponent& pc : plan->components) {
    ComponentSpec comp = BuildComponentSpec(rq, pc.atom_indices);
    BindingTable seeds;
    const BindingTable* seeds_ptr = nullptr;
    if (pc.sideways && !pc.shared_vars.empty()) {
      // Group the shared vars by the earliest prior table binding them
      // and project each group; the seed table is the cross of the groups
      // (usually there is one). Seeding pays when replaying its rows is
      // cheaper than enumerating the anchors it covers — a scan filters
      // both ends; a product search anchors start vars forward, end vars
      // backward, both when bidirectional — so the cross is only built
      // when it is.
      std::map<size_t, std::vector<int>> groups;
      std::set<int> seeded_vars;
      for (int v : pc.shared_vars) {
        for (size_t j = 0; j < tables.size(); ++j) {
          if (tables[j].ColumnOf(v) >= 0) {
            groups[j].push_back(v);
            seeded_vars.insert(v);
            break;
          }
        }
      }
      std::set<int> anchor_vars;
      if (IsReachabilityScanComponent(rq, comp)) {
        anchor_vars.insert(comp.vars.begin(), comp.vars.end());
      }
      if (pc.direction != SearchDirection::kBackward) {
        anchor_vars.insert(comp.start_vars.begin(), comp.start_vars.end());
      }
      if (pc.direction == SearchDirection::kBackward ||
          pc.direction == SearchDirection::kBidirectional) {
        anchor_vars.insert(comp.end_vars.begin(), comp.end_vars.end());
      }
      int covered = 0;
      for (int v : anchor_vars) covered += seeded_vars.count(v);
      std::vector<BindingTable> parts;
      double rows = 1.0;
      for (const auto& [j, vars] : groups) {
        if (covered == 0) break;
        parts.push_back(ProjectDistinct(tables[j], vars));
        rows *= static_cast<double>(parts.back().rows.size());
      }
      if (covered > 0 && rows <= kMaxSeedRows && rows < std::pow(V, covered)) {
        seeds = std::move(parts[0]);
        for (size_t k = 1; k < parts.size(); ++k) {
          std::vector<int> vars = seeds.vars;
          vars.insert(vars.end(), parts[k].vars.begin(), parts[k].vars.end());
          BindingTable crossed(std::move(vars));
          for (std::span<const NodeId> a : seeds.rows) {
            for (std::span<const NodeId> b : parts[k].rows) {
              std::span<NodeId> row = crossed.rows.Append();
              std::copy(a.begin(), a.end(), row.begin());
              std::copy(b.begin(), b.end(), row.begin() + a.size());
            }
          }
          seeds = std::move(crossed);
        }
        seeds_ptr = &seeds;
      }
    }
    // The runtime-resolved lane count wins (a per-execution num_threads
    // override must be honored even against a plan memoized at a lower
    // session parallelism); the plan only contributes its cost-based
    // demotion of leaves too small to amortize lanes.
    const int leaf_threads = pc.demoted_serial ? 1 : num_threads;
    BindingTable table(comp.vars);
    Status st = ExecuteComponentOp(rq, comp, options, fixed, seeds_ptr,
                                   pc.est_rows, pc.direction, leaf_threads,
                                   stats, &table.rows, /*graph_sink=*/nullptr);
    if (!st.ok()) return st;
    if (table.rows.empty()) return Status::OK();  // empty answer
    tables.push_back(std::move(table));
  }

  // Semi-join reduction between the component tables before the join:
  // rows with no partner on a shared variable can never contribute
  // (Yannakakis' first phase, at component granularity).
  bool changed = tables.size() > 1;
  for (int rounds = 0;
       changed && rounds < static_cast<int>(tables.size()) + 2; ++rounds) {
    changed = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      for (size_t j = 0; j < tables.size(); ++j) {
        if (i == j) continue;
        if (SemiJoinFilterOp(&tables[i], tables[j], stats)) {
          changed = true;
        }
        if (tables[i].rows.empty()) return Status::OK();  // empty answer
      }
    }
  }

  // Early projection (Yannakakis' second phase, PhysicalPlan::projections):
  // private non-head columns go, and two tables sharing a private
  // non-head variable are replaced by their joined projection, so
  // intermediate results stay bounded by the projected tables instead of
  // enumerating every embedding.
  for (const ProjectionStep& step : plan->projections) {
    BindingTable& left = tables[step.left];
    if (step.right < 0) {
      OperatorStats op;
      op.op = "Project";
      op.detail = "onto";
      for (int v : step.keep) op.detail += " v" + std::to_string(v);
      op.rows_in = left.rows.size();
      left = ProjectDistinct(left, step.keep);
      op.rows_out = left.rows.size();
      stats.operators.push_back(std::move(op));
    } else {
      left = HashJoinOp(left, tables[step.right], step.keep, stats);
      tables.erase(tables.begin() + step.right);
    }
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("query execution cancelled");
    }
    if (tables[step.left].rows.empty()) return Status::OK();  // empty answer
  }

  // The final join streams: each new head projection goes to the sink as
  // soon as it is found, so early termination (limit / exists) stops the
  // join itself, and path answers (when requested) are built per emitted
  // tuple only. The tables hold distinct rows, so when every column is a
  // head variable no head repeats.
  std::vector<int> head_vars;
  for (const NodeTerm& term : query.head_nodes()) {
    ECRPQ_DCHECK(!term.is_constant);
    head_vars.push_back(query.NodeVarIndex(term.name));
  }
  bool heads_distinct = true;
  for (const BindingTable& t : tables) {
    for (int v : t.vars) {
      if (std::find(head_vars.begin(), head_vars.end(), v) ==
          head_vars.end()) {
        heads_distinct = false;
      }
    }
  }
  HeadTupleEmitter emitter(rq, options, sink, heads_distinct);
  std::vector<NodeId> head(head_vars.size());
  StreamJoinOp(tables, query.node_variables().size(), stats, cancel,
               [&](const std::vector<NodeId>& binding) {
                 for (size_t k = 0; k < head_vars.size(); ++k) {
                   head[k] = binding[head_vars[k]];
                 }
                 return emitter.Emit(head);
               });
  if (emitter.status().ok() && cancel != nullptr && cancel->cancelled() &&
      !emitter.stopped_by_sink()) {
    return Status::Cancelled("query execution cancelled");
  }
  return emitter.status();
}

}  // namespace

Status EvaluateProduct(const GraphDb& graph, const Query& query,
                       const EvalOptions& options, ResultSink& sink,
                       EvalStats& stats, CompiledQueryPtr compiled,
                       GraphIndexPtr index, const PhysicalPlan* plan) {
  if (!query.linear_atoms().empty()) {
    return Status::FailedPrecondition(
        "the product engine does not handle linear atoms; use the counting "
        "engine (Engine::kCounting)");
  }
  auto resolved_or =
      ResolveQuery(graph, query, std::move(compiled), std::move(index));
  if (!resolved_or.ok()) return resolved_or.status();
  ResolvedQuery& rq = resolved_or.value();
  if (rq.index == nullptr) rq.index = GraphIndex::Build(graph);
  stats.engine = "product";
  return ExecutePlan(rq, options, plan, sink, stats);
}

Result<QueryResult> EvaluateProduct(const GraphDb& graph, const Query& query,
                                    const EvalOptions& options) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateProduct(graph, query, options, sink, stats);
  });
}

Result<std::vector<ComponentProductGraph>> BuildComponentProducts(
    const GraphDb& graph, const Query& query, const EvalOptions& options,
    const std::vector<NodeId>& assignment, CompiledQueryPtr compiled,
    GraphIndexPtr index) {
  auto resolved_or =
      ResolveQuery(graph, query, std::move(compiled), std::move(index));
  if (!resolved_or.ok()) return resolved_or.status();
  ResolvedQuery& rq = resolved_or.value();
  if (rq.index == nullptr) rq.index = GraphIndex::Build(graph);
  if (assignment.size() != query.node_variables().size()) {
    return Status::InvalidArgument(
        "assignment arity does not match node variable count");
  }
  for (NodeId v : assignment) {
    if (v < 0 || v >= graph.num_nodes()) {
      return Status::InvalidArgument("assignment binds a non-node");
    }
  }

  std::vector<ComponentProductGraph> out;
  EvalStats stats;
  for (const auto& group : rq.analysis().components) {
    ComponentSpec comp = BuildComponentSpec(rq, group);
    ProductGraphSink sink;
    Status st = ExecuteComponentOp(rq, comp, options, assignment,
                                   /*seeds=*/nullptr, /*est_rows=*/-1.0,
                                   SearchDirection::kForward,
                                   /*num_threads=*/1, stats,
                                   /*results=*/nullptr, &sink);
    if (!st.ok()) return st;
    ComponentProductGraph cpg;
    cpg.tracks = comp.tracks;
    cpg.num_states = static_cast<int>(sink.configs.size());
    cpg.initial = sink.initial;
    cpg.accepting = sink.accepting;
    for (int s = 0; s < cpg.num_states; ++s) {
      for (const auto& [letters, target] : sink.arcs[s]) {
        cpg.arcs.emplace_back(s, target, letters);
      }
    }
    out.push_back(std::move(cpg));
  }
  return out;
}

Result<PathAnswerSet> BuildPathAnswerSet(
    const GraphDb& graph, const Query& query, const EvalOptions& options,
    const std::vector<NodeId>& head_nodes, CompiledQueryPtr compiled,
    GraphIndexPtr index) {
  auto resolved_or =
      ResolveQuery(graph, query, std::move(compiled), std::move(index));
  if (!resolved_or.ok()) return resolved_or.status();
  ResolvedQuery& rq = resolved_or.value();
  if (rq.index == nullptr) rq.index = GraphIndex::Build(graph);

  if (head_nodes.size() != query.head_nodes().size()) {
    return Status::InvalidArgument(
        "head binding arity does not match query head");
  }

  // Fix head node variables.
  std::vector<NodeId> fixed(query.node_variables().size(), -1);
  for (size_t i = 0; i < query.head_nodes().size(); ++i) {
    const NodeTerm& term = query.head_nodes()[i];
    int v = query.NodeVarIndex(term.name);
    if (fixed[v] >= 0 && fixed[v] != head_nodes[i]) {
      return Status::InvalidArgument("inconsistent head binding");
    }
    fixed[v] = head_nodes[i];
  }

  // Split the query: the atoms of components containing a head path
  // variable are searched jointly with arc recording; the remaining
  // components only constrain node variables, so they are solved node-only
  // and their satisfying assignments anchor the head search.
  std::vector<int> head_path_ids;
  for (const std::string& p : query.head_paths()) {
    head_path_ids.push_back(query.PathVarIndex(p));
  }
  std::vector<int> head_atoms;
  std::vector<ComponentSpec> other_components;
  for (const auto& group : rq.analysis().components) {
    bool has_head = false;
    for (int idx : group) {
      for (int hp : head_path_ids) {
        if (rq.atoms[idx].path == hp) has_head = true;
      }
    }
    if (has_head) {
      head_atoms.insert(head_atoms.end(), group.begin(), group.end());
    } else {
      other_components.push_back(BuildComponentSpec(rq, group));
    }
  }
  std::sort(head_atoms.begin(), head_atoms.end());
  if (head_atoms.empty()) {
    return Status::InvalidArgument("query head has no path variables");
  }
  ComponentSpec comp = BuildComponentSpec(rq, head_atoms);

  EvalStats stats;

  // Anchor assignments: satisfying bindings of the other components,
  // joined on their shared variables and projected to the variables they
  // share with the head component. Without side components the one
  // anchor is `fixed`; side components that are each satisfiable but do
  // not join leave none, and the answer set is empty.
  const PathAnswerSet empty(
      std::max<int>(static_cast<int>(head_path_ids.size()), 1),
      graph.alphabet().size());
  std::vector<BindingTable> others;
  for (const ComponentSpec& other : other_components) {
    BindingTable table(other.vars);
    Status st = ExecuteComponentOp(rq, other, options, fixed,
                                   /*seeds=*/nullptr, /*est_rows=*/-1.0,
                                   SearchDirection::kAuto,
                                   /*num_threads=*/1, stats, &table.rows,
                                   /*graph_sink=*/nullptr);
    if (!st.ok()) return st;
    if (table.rows.empty()) return empty;  // unsatisfiable side condition
    others.push_back(std::move(table));
  }
  RowBuffer anchors(fixed.size());
  StreamJoinOp(others, fixed.size(), stats, /*cancel=*/nullptr,
               [&](const std::vector<NodeId>& binding) {
                 std::span<NodeId> anchor = anchors.Append();
                 std::copy(fixed.begin(), fixed.end(), anchor.begin());
                 for (int v : comp.vars) {
                   if (binding[v] >= 0) anchor[v] = binding[v];
                 }
                 return true;
               });
  if (anchors.empty()) return empty;
  anchors.SortUnique();

  ProductGraphSink sink;
  for (std::span<const NodeId> row : anchors) {
    const std::vector<NodeId> anchor(row.begin(), row.end());
    Status st = ExecuteComponentOp(rq, comp, options, anchor,
                                   /*seeds=*/nullptr, /*est_rows=*/-1.0,
                                   SearchDirection::kForward,
                                   /*num_threads=*/1, stats,
                                   /*results=*/nullptr, &sink);
    if (!st.ok()) return st;
  }

  // Head track selection (indices into comp.tracks).
  std::vector<int> head_tracks;
  for (const std::string& p : query.head_paths()) {
    head_tracks.push_back(comp.track_of_path[query.PathVarIndex(p)]);
  }
  const int k = static_cast<int>(head_tracks.size());

  // ε-closure over arcs whose head projection is all-pad, so that the
  // answer automaton counts head-projections exactly.
  const int n = static_cast<int>(sink.configs.size());
  auto head_all_pad = [&](const std::vector<Symbol>& letters) {
    for (int t : head_tracks) {
      if (letters[t] != kPad) return false;
    }
    return true;
  };
  // closure[s] = states reachable from s via head-all-pad arcs.
  std::vector<std::vector<int>> closure(n);
  for (int s = 0; s < n; ++s) {
    std::vector<bool> seen(n, false);
    std::vector<int> stack = {s};
    seen[s] = true;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      closure[s].push_back(u);
      for (const auto& [letters, target] : sink.arcs[u]) {
        if (head_all_pad(letters) && !seen[target]) {
          seen[target] = true;
          stack.push_back(target);
        }
      }
    }
  }

  PathAnswerSet answers(std::max(k, 1), graph.alphabet().size());
  std::vector<int> remap(n);
  for (int s = 0; s < n; ++s) {
    std::vector<NodeId> head_node_tuple;
    for (int t : head_tracks) {
      head_node_tuple.push_back(sink.configs[s].nodes[t]);
    }
    bool accepting = false;
    for (int c : closure[s]) accepting = accepting || sink.accepting[c];
    remap[s] = answers.AddState(std::move(head_node_tuple), sink.initial[s],
                                accepting);
  }
  for (int s = 0; s < n; ++s) {
    for (int c : closure[s]) {
      for (const auto& [letters, target] : sink.arcs[c]) {
        if (head_all_pad(letters)) continue;
        TupleLetter head_letter;
        for (int t : head_tracks) head_letter.push_back(letters[t]);
        answers.AddArc(remap[s], head_letter, remap[target]);
      }
    }
  }
  return answers;
}

}  // namespace ecrpq
