#include "solver/parikh.h"

#include <functional>
#include <map>
#include <tuple>

#include "automata/operations.h"

namespace ecrpq {

Status ParikhConstraintBuilder::AddCountedGraph(
    int num_states, const std::vector<int>& initial,
    const std::vector<int>& accepting,
    const std::vector<std::tuple<int, int,
                                 std::vector<std::pair<int, int64_t>>>>&
        arcs_in) {
  if (initial.empty() || accepting.empty()) {
    return Status::InvalidArgument(
        "Parikh encoding: flow graph needs initial and accepting states");
  }
  FlowGraph fg;
  fg.source = num_states;
  fg.sink = num_states + 1;
  fg.num_states = num_states + 2;
  const int64_t big_flow = options_.max_flow_per_transition;

  // Arcs: the automaton's, plus source->initial and accepting->sink.
  std::vector<std::vector<std::pair<int, int64_t>>> contribs;
  for (const auto& [from, to, contrib] : arcs_in) {
    fg.arc_from.push_back(from);
    fg.arc_to.push_back(to);
    contribs.push_back(contrib);
  }
  for (int s : initial) {
    fg.arc_from.push_back(fg.source);
    fg.arc_to.push_back(s);
    contribs.emplace_back();
  }
  for (int s : accepting) {
    fg.arc_from.push_back(s);
    fg.arc_to.push_back(fg.sink);
    contribs.emplace_back();
  }
  const int num_arcs = static_cast<int>(fg.arc_from.size());
  for (int t = 0; t < num_arcs; ++t) {
    fg.arc_flow_var.push_back(problem_.AddVariable(0, big_flow));
  }

  // Flow conservation.
  for (int q = 0; q < fg.num_states; ++q) {
    LinearConstraint c;
    for (int t = 0; t < num_arcs; ++t) {
      if (fg.arc_from[t] == q) c.terms.emplace_back(fg.arc_flow_var[t], 1);
      if (fg.arc_to[t] == q) c.terms.emplace_back(fg.arc_flow_var[t], -1);
    }
    c.cmp = Cmp::kEq;
    c.rhs = (q == fg.source) ? 1 : (q == fg.sink ? -1 : 0);
    problem_.AddConstraint(std::move(c));
  }

  // Counter contributions: counter = Σ weight · f over contributing arcs.
  std::map<int, std::vector<std::pair<int, int64_t>>> per_counter;
  for (int t = 0; t < num_arcs; ++t) {
    for (const auto& [counter, weight] : contribs[t]) {
      per_counter[counter].emplace_back(fg.arc_flow_var[t], -weight);
    }
  }
  for (auto& [counter, terms] : per_counter) {
    LinearConstraint c;
    c.terms.emplace_back(counter, 1);
    for (auto& term : terms) c.terms.push_back(term);
    c.cmp = Cmp::kEq;
    c.rhs = 0;
    problem_.AddConstraint(std::move(c));
  }
  // Counters with no contributing arcs in this graph are NOT forced to 0
  // here (they may belong to other graphs); ExistsWordWithCounts and the
  // counting engine zero unconstrained counters explicitly.
  graphs_.push_back(std::move(fg));
  return Status::OK();
}

Result<std::vector<int>> ParikhConstraintBuilder::AddAutomaton(
    const Nfa& nfa_in) {
  const Nfa nfa = Trim(nfa_in);
  if (nfa.num_states() == 0) {
    return Status::InvalidArgument(
        "Parikh encoding: automaton accepts nothing");
  }
  const int64_t big_flow = options_.max_flow_per_transition;
  std::vector<int> x(nfa.num_symbols());
  for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
    x[a] = problem_.AddVariable(
        0, big_flow * std::max(nfa.num_transitions(), 1));
  }
  std::vector<std::tuple<int, int, std::vector<std::pair<int, int64_t>>>>
      arcs;
  std::vector<bool> letter_used(nfa.num_symbols(), false);
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      std::vector<std::pair<int, int64_t>> contribs;
      if (arc.first != kEpsilon) {
        contribs.emplace_back(x[arc.first], 1);
        letter_used[arc.first] = true;
      }
      arcs.emplace_back(s, arc.second, std::move(contribs));
    }
  }
  std::vector<int> initial, accepting;
  for (StateId s : nfa.InitialStates()) initial.push_back(s);
  for (StateId s : nfa.AcceptingStates()) accepting.push_back(s);
  Status st = AddCountedGraph(nfa.num_states(), initial, accepting, arcs);
  if (!st.ok()) return st;
  // Letters with no transition are always 0.
  for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
    if (!letter_used[a]) problem_.AddEq(x[a], 0);
  }
  return x;
}

void ParikhConstraintBuilder::AddConstraint(LinearConstraint constraint) {
  problem_.AddConstraint(std::move(constraint));
}

int ParikhConstraintBuilder::AddVariable(int64_t lower, int64_t upper) {
  return problem_.AddVariable(lower, upper);
}

Result<IlpSolution> ParikhConstraintBuilder::Solve(
    const CancellationToken* cancellation) {
  // Lazy connectivity cuts: with flow conservation in force, a genuine run
  // exists iff every arc with positive flow is weakly connected to the
  // source through the positive-flow support (Euler-run condition; the
  // sink is tied back to the source by the unit of s->t flow).
  for (int round = 0; round < options_.max_cut_rounds; ++round) {
    auto solution = SolveIlp(problem_, options_.ilp, cancellation);
    if (!solution.ok()) return solution;
    if (!solution.value().feasible) return solution;
    const std::vector<int64_t>& values = solution.value().values;

    bool all_connected = true;
    for (const FlowGraph& fg : graphs_) {
      // Union-find over states joined by positive-flow arcs; the sink is
      // joined to the source (the run ends there).
      std::vector<int> parent(fg.num_states);
      for (int i = 0; i < fg.num_states; ++i) parent[i] = i;
      std::function<int(int)> find = [&](int a) {
        while (parent[a] != a) {
          parent[a] = parent[parent[a]];
          a = parent[a];
        }
        return a;
      };
      auto unite = [&](int a, int b) { parent[find(a)] = find(b); };
      unite(fg.sink, fg.source);
      for (size_t t = 0; t < fg.arc_from.size(); ++t) {
        if (values[fg.arc_flow_var[t]] > 0) {
          unite(fg.arc_from[t], fg.arc_to[t]);
        }
      }
      // Any positive-flow arc outside the source's component witnesses a
      // disconnected circulation; cut its component K.
      int source_root = find(fg.source);
      int bad_root = -1;
      for (size_t t = 0; t < fg.arc_from.size() && bad_root < 0; ++t) {
        if (values[fg.arc_flow_var[t]] > 0 &&
            find(fg.arc_from[t]) != source_root) {
          bad_root = find(fg.arc_from[t]);
        }
      }
      if (bad_root < 0) continue;
      all_connected = false;

      // K = states in bad_root's component. Cut:
      //   B·|arcs(K)| · Σ_{t entering K from outside} f_t
      //     >= Σ_{t inside K} f_t.
      std::vector<bool> in_k(fg.num_states, false);
      for (int q = 0; q < fg.num_states; ++q) {
        in_k[q] = (find(q) == bad_root);
      }
      LinearConstraint cut;
      int64_t inside_arcs = 0;
      for (size_t t = 0; t < fg.arc_from.size(); ++t) {
        if (in_k[fg.arc_from[t]] && in_k[fg.arc_to[t]]) ++inside_arcs;
      }
      const int64_t big = options_.max_flow_per_transition *
                          std::max<int64_t>(inside_arcs, 1);
      for (size_t t = 0; t < fg.arc_from.size(); ++t) {
        bool from_in = in_k[fg.arc_from[t]];
        bool to_in = in_k[fg.arc_to[t]];
        if (!from_in && to_in) {
          cut.terms.emplace_back(fg.arc_flow_var[t], big);
        } else if (from_in && to_in) {
          cut.terms.emplace_back(fg.arc_flow_var[t], -1);
        }
      }
      cut.cmp = Cmp::kGe;
      cut.rhs = 0;
      problem_.AddConstraint(std::move(cut));
    }
    if (all_connected) return solution;
  }
  return Status::ResourceExhausted(
      "Parikh connectivity cuts did not converge within " +
      std::to_string(options_.max_cut_rounds) + " rounds");
}

Result<std::optional<std::vector<int64_t>>> ExistsWordWithCounts(
    const Nfa& nfa, const std::vector<LinearConstraint>& constraints,
    const ParikhOptions& options) {
  ParikhConstraintBuilder builder(options);
  auto x = builder.AddAutomaton(nfa);
  if (!x.ok()) {
    // Empty automaton: no word at all.
    if (x.status().code() == StatusCode::kInvalidArgument) {
      return std::optional<std::vector<int64_t>>(std::nullopt);
    }
    return x.status();
  }
  const std::vector<int>& vars = x.value();
  for (LinearConstraint c : constraints) {
    // Remap letter-count variable indices to the builder's variables.
    for (auto& [var, coef] : c.terms) {
      ECRPQ_DCHECK(var >= 0 && var < static_cast<int>(vars.size()));
      var = vars[var];
    }
    builder.AddConstraint(std::move(c));
  }
  auto solution = builder.Solve();
  if (!solution.ok()) return solution.status();
  if (!solution.value().feasible) {
    return std::optional<std::vector<int64_t>>(std::nullopt);
  }
  std::vector<int64_t> counts(vars.size());
  for (size_t a = 0; a < vars.size(); ++a) {
    counts[a] = solution.value().values[vars[a]];
  }
  return std::optional<std::vector<int64_t>>(std::move(counts));
}

}  // namespace ecrpq
