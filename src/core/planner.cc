#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "core/parallel.h"

namespace ecrpq {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kReachabilityScan:
      return "ReachabilityScan";
    case OpKind::kProductExpand:
      return "ProductExpand";
    case OpKind::kHashJoin:
      return "HashJoin";
    case OpKind::kSemiJoinFilter:
      return "SemiJoinFilter";
    case OpKind::kLinearConstraintCheck:
      return "LinearConstraintCheck";
  }
  return "?";
}

namespace {

// Variable roles of one component, computed from the query text alone
// (planning must work before constants are resolved against a graph, so
// this mirrors ops.cc's BuildComponentSpec without a ResolvedQuery).
struct ComponentVars {
  std::vector<int> vars;
  std::vector<int> start_vars;
  std::vector<int> end_vars;
  std::vector<int> tracks;        // global path-var ids
  int const_endpoints = 0;        // constant/parameter atom endpoints
};

ComponentVars CollectComponentVars(const Query& query,
                                   const std::vector<int>& atom_indices) {
  ComponentVars out;
  auto add_var = [&](const NodeTerm& term, bool is_start) {
    if (!term.IsVariable()) {
      ++out.const_endpoints;
      return;
    }
    int var = query.NodeVarIndex(term.name);
    if (std::find(out.vars.begin(), out.vars.end(), var) == out.vars.end()) {
      out.vars.push_back(var);
    }
    std::vector<int>& side = is_start ? out.start_vars : out.end_vars;
    if (std::find(side.begin(), side.end(), var) == side.end()) {
      side.push_back(var);
    }
  };
  for (int idx : atom_indices) {
    const PathAtom& atom = query.path_atoms()[idx];
    int path = query.PathVarIndex(atom.path);
    if (std::find(out.tracks.begin(), out.tracks.end(), path) ==
        out.tracks.end()) {
      out.tracks.push_back(path);
    }
    add_var(atom.from, /*is_start=*/true);
    add_var(atom.to, /*is_start=*/false);
  }
  return out;
}

// Per-track statistics under the live first-letter masks: the letters
// the relations' initial state-sets can read on this track (forward),
// and — for the backward mirror — the letters their accepting states can
// be reached by (rev_tape_masks of the reversed tape's initial states,
// i.e. the LAST letters of the track's words).
struct TrackStats {
  double live_edges = 0;
  double live_sources = 0;
  double live_targets = 0;
  double bwd_live_edges = 0;
  double bwd_live_sources = 0;
  double bwd_live_targets = 0;
  double states = 1;         // product of relation automaton sizes
  bool accepts_empty = true; // every relation accepts ε on this track
};

TrackStats ComputeTrackStats(const CompiledQuery& compiled, int track,
                             const GraphIndex& index) {
  TrackStats out;
  const int num_labels = index.num_labels();
  uint64_t mask = ~0ULL;
  uint64_t bwd_mask = ~0ULL;
  bool constrained = false;
  for (const ResolvedRelation& rel : compiled.relations) {
    bool reads = false;
    for (size_t tape = 0; tape < rel.paths.size(); ++tape) {
      if (rel.paths[tape] != track) continue;
      reads = true;
      uint64_t m = 0;
      for (StateId s : rel.initial) m |= rel.tape_masks[s][tape];
      mask &= m;
      uint64_t bm = 0;
      for (StateId s : rel.rev_initial) bm |= rel.rev_tape_masks[s][tape];
      bwd_mask &= bm;
      constrained = true;
    }
    if (reads) {
      out.states *= std::max(1, rel.nfa.num_states());
      bool rel_accepts_empty = false;
      for (StateId s : rel.initial) {
        if (rel.accepting[s]) rel_accepts_empty = true;
      }
      out.accepts_empty = out.accepts_empty && rel_accepts_empty;
    }
  }
  const double V = std::max(1, index.num_nodes());
  if (!constrained || num_labels > 64) {
    out.live_edges = out.bwd_live_edges = index.num_edges();
    out.live_sources = out.bwd_live_sources = V;
    out.live_targets = out.bwd_live_targets = V;
    return out;
  }
  for (Symbol l = 0; l < num_labels && l < 64; ++l) {
    if ((mask >> l) & 1) {
      out.live_edges += static_cast<double>(index.LabelCount(l));
      out.live_sources += static_cast<double>(index.LabelSourceCount(l));
      out.live_targets += static_cast<double>(index.LabelTargetCount(l));
    }
    if ((bwd_mask >> l) & 1) {
      out.bwd_live_edges += static_cast<double>(index.LabelCount(l));
      out.bwd_live_sources +=
          static_cast<double>(index.LabelSourceCount(l));
      out.bwd_live_targets +=
          static_cast<double>(index.LabelTargetCount(l));
    }
  }
  out.live_sources = std::min(out.live_sources, V);
  out.live_targets = std::min(out.live_targets, V);
  out.bwd_live_sources = std::min(out.bwd_live_sources, V);
  out.bwd_live_targets = std::min(out.bwd_live_targets, V);
  return out;
}

}  // namespace

namespace {

// One pass over the component's tracks, producing the cardinality
// estimate and the per-direction full-seeding expansion-work proxies
// (est_cost / est_cost_bwd factors). The directional work sums live edge
// volume scaled with automaton size plus the average degree along the
// direction's first live letter set — live_edges / live_sources is the
// mean out-fanout a forward frontier step pays, live edges over targets
// the mean in-fanout of a backward step.
void EstimateComponent(const CompiledQuery& compiled,
                       const ComponentVars& cv, const GraphIndex& index,
                       double* card_out, double* expand_work_out,
                       double* bwd_expand_work_out) {
  const double V = std::max(1, index.num_nodes());
  double card = 1.0;
  double expand_work = 1.0;
  double bwd_expand_work = 1.0;
  for (int track : cv.tracks) {
    TrackStats ts = ComputeTrackStats(compiled, track, index);
    // Reachable (start, end) pair estimate for this track: bounded by the
    // distinct live sources × targets, and by the live edge volume scaled
    // with automaton size (a shallow-path proxy). Both bounds grow with
    // per-label edge counts, so the estimate is monotone in them.
    double pairs = std::min(ts.live_sources * std::max(ts.live_targets, 1.0),
                            ts.live_edges * std::min(ts.states, 64.0));
    if (ts.accepts_empty) pairs = std::max(pairs, V);  // ε: all (v, v)
    card *= std::max(pairs, 1.0);
    expand_work += ts.live_edges * std::min(ts.states, 64.0) +
                   ts.live_edges / std::max(ts.live_sources, 1.0);
    bwd_expand_work += ts.bwd_live_edges * std::min(ts.states, 64.0) +
                       ts.bwd_live_edges / std::max(ts.bwd_live_targets, 1.0);
  }
  // Constant/parameter endpoints anchor the search: each divides the
  // surviving assignment space by the node count.
  for (int i = 0; i < cv.const_endpoints; ++i) card /= V;
  const double ceiling =
      std::pow(V, static_cast<double>(std::max<size_t>(cv.vars.size(), 0)));
  *card_out = std::min(std::max(card, 0.0), ceiling);
  *expand_work_out = expand_work;
  if (bwd_expand_work_out != nullptr) {
    *bwd_expand_work_out = bwd_expand_work;
  }
}

}  // namespace

double EstimateComponentCardinality(const Query& query,
                                    const CompiledQuery& compiled,
                                    const std::vector<int>& atom_indices,
                                    const GraphIndex& index) {
  ComponentVars cv = CollectComponentVars(query, atom_indices);
  double card = 0.0, expand_work = 0.0;
  EstimateComponent(compiled, cv, index, &card, &expand_work, nullptr);
  return card;
}

PhysicalPlan PlanQuery(const Query& query, const CompiledQuery& compiled,
                       const GraphIndex& index, const EvalOptions& options) {
  PhysicalPlan plan;
  plan.engine = SelectEngine(query, options.engine);
  plan.linear_check = !query.linear_atoms().empty();

  // The conjunct groups the leaves evaluate over: one leaf per
  // synchronization component (a CRPQ's are single atoms: the all-scan
  // plan), or one monolithic group when decomposition is forbidden.
  // Brute force has no operator structure (reference enumeration).
  std::vector<std::vector<int>> groups;
  if (plan.engine == Engine::kBruteForce) {
    plan.decomposed = false;
    return plan;
  }
  if (options.use_components) {
    groups = compiled.analysis.components;
  } else {
    std::vector<int> all(query.path_atoms().size());
    std::iota(all.begin(), all.end(), 0);
    if (!all.empty()) groups.push_back(std::move(all));
  }
  plan.decomposed = groups.size() > 1;
  plan.num_threads = ResolveNumThreads(options.num_threads);
  // Counting and qlen enumerate their own σ-assignments; their plans only
  // describe the leaves, without executor annotations.
  const bool joined = plan.engine == Engine::kProduct;

  const double V = std::max(1, index.num_nodes());
  // Per-component expansion-work proxies, parallel to plan.components
  // until the cheapest-first reorder (carried inside the component via
  // est_cost / est_cost_bwd afterwards).
  for (const std::vector<int>& group : groups) {
    PlannedComponent pc;
    pc.atom_indices = group;
    ComponentVars cv = CollectComponentVars(query, group);
    pc.vars = cv.vars;
    pc.start_vars = cv.start_vars;
    pc.end_vars = cv.end_vars;
    // A one-atom component whose path has a scan language is a scan.
    pc.leaf = group.size() == 1 && compiled.scan_languages[cv.tracks[0]]
                  ? OpKind::kReachabilityScan
                  : OpKind::kProductExpand;
    double expand_work = 0.0;
    double bwd_expand_work = 0.0;
    EstimateComponent(compiled, cv, index, &pc.est_rows, &expand_work,
                      &bwd_expand_work);
    pc.est_cost =
        std::pow(V, static_cast<double>(pc.start_vars.size())) * expand_work;
    pc.est_cost_bwd =
        std::pow(V, static_cast<double>(pc.end_vars.size())) *
        bwd_expand_work;
    // Chosen parallelism: the resolved lane count, demoted to serial when
    // the cost estimate says the leaf cannot amortize lane startup (a
    // distinct flag, so a serial-session plan is not mistaken for a
    // demotion by later num_threads overrides). The executor honors the
    // demotion per leaf.
    pc.demoted_serial = joined && pc.est_cost >= 0.0 && pc.est_cost < 20000.0;
    pc.threads = pc.demoted_serial ? 1 : plan.num_threads;
    plan.components.push_back(std::move(pc));
  }
  if (!joined) return plan;

  // Cheapest-first ordering (stable: analysis order breaks ties).
  std::stable_sort(plan.components.begin(), plan.components.end(),
                   [](const PlannedComponent& a, const PlannedComponent& b) {
                     if (a.est_rows != b.est_rows) {
                       return a.est_rows < b.est_rows;
                     }
                     return a.est_cost < b.est_cost;
                   });

  // Sideways information passing and per-leaf direction. A component
  // whose anchor-side variables (or, for scan leaves, any variables)
  // were bound by earlier components is seeded from the accumulated
  // bindings instead of fully enumerated; the executor still applies a
  // runtime guard (seed rows vs. full seeding). The direction choice
  // uses the same sharing information: a side counts as anchored when
  // every one of its variables is shared with earlier components
  // (constants contribute no variables, so fully constant sides are
  // anchored for free). Both sides anchored → bidirectional
  // (meet-in-the-middle on the unique per-row assignment); otherwise the
  // per-direction cost — node-count to the power of the side's FREE
  // variables times the direction's expansion-work proxy — picks forward
  // or backward, with a margin biasing ties to the classical forward
  // search.
  std::set<int> bound;
  for (PlannedComponent& pc : plan.components) {
    for (int v : pc.vars) {
      if (bound.count(v)) pc.shared_vars.push_back(v);
    }
    auto shared = [&](int v) {
      return std::find(pc.shared_vars.begin(), pc.shared_vars.end(), v) !=
             pc.shared_vars.end();
    };
    bool shares_start = false;
    bool shares_end = false;
    size_t free_starts = 0, free_ends = 0;
    for (int v : pc.start_vars) {
      if (shared(v)) {
        shares_start = true;
      } else {
        ++free_starts;
      }
    }
    for (int v : pc.end_vars) {
      if (shared(v)) {
        shares_end = true;
      } else {
        ++free_ends;
      }
    }
    if (free_starts == 0 && free_ends == 0) {
      pc.direction = SearchDirection::kBidirectional;
    } else {
      // Recover the directional work proxies from the stored full
      // costs and re-scale by the free (unseeded) variable counts.
      const double fwd_work =
          pc.est_cost / std::pow(V, static_cast<double>(pc.start_vars.size()));
      const double bwd_work =
          pc.est_cost_bwd /
          std::pow(V, static_cast<double>(pc.end_vars.size()));
      const double cost_fwd =
          std::pow(V, static_cast<double>(free_starts)) * fwd_work;
      const double cost_bwd =
          std::pow(V, static_cast<double>(free_ends)) * bwd_work;
      if (cost_bwd * 1.25 < cost_fwd) {
        pc.direction = SearchDirection::kBackward;
      }
    }
    // Re-evaluate the serial demotion for the chosen direction: the
    // initial decision used the forward cost, but a leaf flipped to
    // backward (or bidirectional, bounded by the cheaper cone)
    // should amortize lanes against the search it actually runs.
    if (pc.direction != SearchDirection::kForward) {
      const double dir_cost = pc.direction == SearchDirection::kBackward
                                  ? pc.est_cost_bwd
                                  : std::min(pc.est_cost, pc.est_cost_bwd);
      pc.demoted_serial = dir_cost >= 0.0 && dir_cost < 20000.0;
      pc.threads = pc.demoted_serial ? 1 : plan.num_threads;
    }
    const bool shares_anchor =
        pc.direction == SearchDirection::kBidirectional
            ? (shares_start || shares_end)
            : (pc.direction == SearchDirection::kBackward ? shares_end
                                                          : shares_start);
    pc.sideways = !pc.shared_vars.empty() &&
                  (shares_anchor || pc.leaf == OpKind::kReachabilityScan);
    // A leaf whose anchor side in its direction holds only constants,
    // and which takes no sideways seed, is one search (or one scan BFS)
    // and runs on one lane.
    const bool constant_anchors =
        (pc.direction == SearchDirection::kBackward ||
         pc.start_vars.empty()) &&
        (pc.direction == SearchDirection::kForward || pc.end_vars.empty());
    if (!pc.sideways && constant_anchors) pc.threads = 1;
    for (int v : pc.vars) bound.insert(v);
  }

  PlanProjections(query, &plan);
  return plan;
}

void PlanProjections(const Query& query, PhysicalPlan* plan) {
  // Early projection, simulated over the leaf tables' columns in plan
  // order. Rule 1 drops every column that is not a head variable and is
  // in no other table; rule 2 replaces two tables sharing a non-head
  // variable found in no other table by their joined projection. Each
  // rule shrinks a table or the table count, so the loop ends.
  plan->projections.clear();
  std::set<int> head;
  for (const NodeTerm& term : query.head_nodes()) {
    if (term.IsVariable()) head.insert(query.NodeVarIndex(term.name));
  }
  std::vector<std::vector<int>> tables;
  for (const PlannedComponent& pc : plan->components) {
    tables.push_back(pc.vars);
  }
  auto in_table = [&](size_t t, int v) {
    return std::find(tables[t].begin(), tables[t].end(), v) !=
           tables[t].end();
  };
  // The columns of `vars` still needed once tables a and b are gone.
  auto needed = [&](const std::vector<int>& vars, size_t a, size_t b) {
    std::vector<int> keep;
    for (int v : vars) {
      bool used = head.count(v) > 0;
      for (size_t t = 0; t < tables.size() && !used; ++t) {
        used = t != a && t != b && in_table(t, v);
      }
      if (used) keep.push_back(v);
    }
    return keep;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      std::vector<int> keep = needed(tables[i], i, i);
      if (keep.size() == tables[i].size()) continue;
      ProjectionStep step;
      step.left = static_cast<int>(i);
      step.keep = keep;
      plan->projections.push_back(std::move(step));
      tables[i] = std::move(keep);
    }
    for (size_t i = 0; i < tables.size() && !changed; ++i) {
      for (int v : tables[i]) {
        if (head.count(v)) continue;
        std::vector<size_t> others;
        for (size_t t = 0; t < tables.size(); ++t) {
          if (t != i && in_table(t, v)) others.push_back(t);
        }
        if (others.size() != 1) continue;
        const size_t j = others[0];  // > i: earlier tables were scanned
        std::vector<int> joined_vars = tables[i];
        for (int w : tables[j]) {
          if (!in_table(i, w)) joined_vars.push_back(w);
        }
        ProjectionStep step;
        step.left = static_cast<int>(i);
        step.right = static_cast<int>(j);
        step.keep = needed(joined_vars, i, j);
        tables[i] = step.keep;
        plan->projections.push_back(std::move(step));
        tables.erase(tables.begin() + j);
        changed = true;
        break;
      }
    }
  }
}

std::string PhysicalPlan::Describe(const Query& query) const {
  auto var_names = [&](const std::vector<int>& vars) {
    std::string out = "{";
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) out += ",";
      out += query.node_variables()[vars[i]];
    }
    return out + "}";
  };
  auto fmt = [](double v) {
    if (v < 0) return std::string("?");
    if (v >= 1e15) return std::string(">=1e15");
    return std::to_string(static_cast<long long>(v + 0.5));
  };

  std::string out = "engine: ";
  out += EngineName(engine);
  out += " (cost-based plan)";
  if (num_threads > 1) {
    out += " threads=" + std::to_string(num_threads);
  }
  out += "\n";
  if (components.empty()) {
    out += "  monolithic enumeration (no operator structure)\n";
  }
  const bool joined = engine == Engine::kProduct;
  for (size_t i = 0; i < components.size(); ++i) {
    const PlannedComponent& pc = components[i];
    out += "  [" + std::to_string(i) + "] ";
    out += OpKindName(pc.leaf);
    out += " atoms{";
    for (size_t a = 0; a < pc.atom_indices.size(); ++a) {
      if (a > 0) out += ",";
      out += std::to_string(pc.atom_indices[a]);
    }
    out += "} vars" + var_names(pc.vars);
    if (pc.sideways) {
      out += " seeded" + var_names(pc.shared_vars);
    }
    if (joined) {
      out += std::string(" direction=") + SearchDirectionName(pc.direction);
    }
    out += " est_rows=" + fmt(pc.est_rows);
    out += " est_cost=" + fmt(pc.est_cost);
    if (pc.threads > 0) out += " parallelism=" + std::to_string(pc.threads);
    out += "\n";
  }
  if (joined) {
    if (components.size() > 1) {
      out += "  SemiJoinFilter to fixpoint\n";
    }
    // Replay the early projection over table labels: a table is named by
    // the leaves it holds ("[0]", "[0,1]").
    struct Table {
      std::string label;
      std::vector<int> vars;
    };
    std::vector<Table> tables;
    for (size_t i = 0; i < components.size(); ++i) {
      tables.push_back({std::to_string(i), components[i].vars});
    }
    for (const ProjectionStep& step : projections) {
      Table& left = tables[step.left];
      if (step.right < 0) {
        out += "  Project [" + left.label + "] onto " + var_names(step.keep) +
               "\n";
      } else {
        const Table& right = tables[step.right];
        out += "  HashJoin [" + left.label + "] x [" + right.label +
               "], project onto " + var_names(step.keep) + "\n";
        left.label += "," + right.label;
        tables.erase(tables.begin() + step.right);
      }
      left.vars = step.keep;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
      std::vector<int> shared;
      for (int v : tables[k].vars) {
        for (size_t j = 0; j < k; ++j) {
          const std::vector<int>& vars = tables[j].vars;
          if (std::find(vars.begin(), vars.end(), v) != vars.end() &&
              std::find(shared.begin(), shared.end(), v) == shared.end()) {
            shared.push_back(v);
          }
        }
      }
      out += "  HashJoin [" + tables[k].label + "] on " + var_names(shared) +
             "\n";
    }
  }
  if (linear_check) {
    out += "  LinearConstraintCheck (Parikh/ILP over " +
           std::to_string(query.linear_atoms().size()) + " linear atoms)\n";
  }
  return out;
}

}  // namespace ecrpq
