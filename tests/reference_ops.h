// Reference versions of the automaton and relation constructions that the
// library builds on flat arc tables: ε-removal by per-state closure,
// trimming over per-state predecessor lists, subset construction over a
// std::map of subsets, the product over a hash map of pair ids with a
// binary search per arc, and the relation algebra that
// decodes every arc letter into a TupleLetter. Tests assert that the
// library's automata are byte-identical to these: the same state
// numbering, flags and arc order, as printed by Dump.
//
// It also keeps the set-based row path the plan executor ran before its
// rows were packed (EvaluateScanPlan): every ReachabilityScan leaf
// collects its rows in a std::set of heap vectors, tables are vectors of
// heap rows, and the joins are nested loops, which give the hash joins'
// row order and counters. Tests assert that the packed path emits the
// same tuples in the same order with the same EvalStats.

#ifndef ECRPQ_TESTS_REFERENCE_OPS_H_
#define ECRPQ_TESTS_REFERENCE_OPS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <functional>
#include <set>
#include <span>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "automata/operations.h"
#include "core/eval_product.h"
#include "core/ops.h"
#include "core/parallel.h"
#include "core/planner.h"
#include "core/reachability.h"
#include "core/result_sink.h"
#include "relations/builtin.h"
#include "relations/relation.h"

namespace ecrpq {

// Every state with its flags and its arcs in order.
inline std::string Dump(const Nfa& nfa) {
  std::string out = std::to_string(nfa.num_symbols()) + " symbols\n";
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    out += std::to_string(s);
    if (nfa.IsInitial(s)) out += " I";
    if (nfa.IsAccepting(s)) out += " F";
    out += ":";
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      out += " ";
      out += std::to_string(arc.first);
      out += ">";
      out += std::to_string(arc.second);
    }
    out += "\n";
  }
  return out;
}

}  // namespace ecrpq

namespace ecrpq::reference {

inline Nfa RemoveEpsilons(const Nfa& nfa) {
  if (!nfa.HasEpsilonArcs()) return nfa;
  Nfa out(nfa.num_symbols());
  out.AddStates(nfa.num_states());
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    std::vector<StateId> closure = nfa.EpsilonClosure({s});
    bool accepting = false;
    for (StateId c : closure) {
      if (nfa.IsAccepting(c)) accepting = true;
      for (const Nfa::Arc& arc : nfa.ArcsFrom(c)) {
        if (arc.first != kEpsilon) {
          out.AddTransition(s, arc.first, arc.second);
        }
      }
    }
    if (accepting) out.SetAccepting(s);
    if (nfa.IsInitial(s)) out.SetInitial(s);
  }
  return out;
}

inline Nfa Trim(const Nfa& nfa) {
  const int n = nfa.num_states();
  std::vector<std::vector<StateId>> succ(n);
  std::vector<std::vector<StateId>> pred(n);
  for (StateId s = 0; s < n; ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      succ[s].push_back(arc.second);
      pred[arc.second].push_back(s);
    }
  }
  auto closure = [n](std::vector<StateId> stack,
                     const std::vector<std::vector<StateId>>& next) {
    std::vector<bool> seen(n, false);
    for (StateId s : stack) seen[s] = true;
    while (!stack.empty()) {
      StateId s = stack.back();
      stack.pop_back();
      for (StateId t : next[s]) {
        if (!seen[t]) {
          seen[t] = true;
          stack.push_back(t);
        }
      }
    }
    return seen;
  };
  std::vector<bool> fwd = closure(nfa.InitialStates(), succ);
  std::vector<bool> bwd = closure(nfa.AcceptingStates(), pred);
  std::vector<StateId> remap(n, -1);
  Nfa out(nfa.num_symbols());
  for (StateId s = 0; s < n; ++s) {
    if (fwd[s] && bwd[s]) {
      remap[s] = out.AddState();
      out.SetInitial(remap[s], nfa.IsInitial(s));
      out.SetAccepting(remap[s], nfa.IsAccepting(s));
    }
  }
  for (StateId s = 0; s < n; ++s) {
    if (remap[s] < 0) continue;
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (remap[arc.second] >= 0) {
        out.AddTransition(remap[s], arc.first, remap[arc.second]);
      }
    }
  }
  return out;
}

// Subset construction interning each subset in a std::map, numbered in
// discovery order.
inline Dfa Determinize(const Nfa& nfa_in) {
  const Nfa nfa = reference::RemoveEpsilons(nfa_in);
  std::map<std::vector<StateId>, StateId> ids;
  std::vector<std::vector<StateId>> sets;
  std::vector<bool> accepting;
  auto intern = [&](std::vector<StateId> set) {
    auto [it, inserted] = ids.emplace(std::move(set), 0);
    if (inserted) {
      it->second = static_cast<StateId>(sets.size());
      sets.push_back(it->first);
      bool acc = false;
      for (StateId s : it->first) acc = acc || nfa.IsAccepting(s);
      accepting.push_back(acc);
    }
    return it->second;
  };
  const StateId initial = intern(nfa.InitialStates());
  std::vector<std::vector<StateId>> table;
  for (size_t i = 0; i < sets.size(); ++i) {
    std::vector<std::vector<StateId>> next(nfa.num_symbols());
    for (StateId s : sets[i]) {
      for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
        next[arc.first].push_back(arc.second);
      }
    }
    std::vector<StateId> row(nfa.num_symbols());
    for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
      std::sort(next[a].begin(), next[a].end());
      next[a].erase(std::unique(next[a].begin(), next[a].end()),
                    next[a].end());
      row[a] = intern(std::move(next[a]));
    }
    table.push_back(std::move(row));
  }
  Dfa dfa(nfa.num_symbols(), static_cast<int>(sets.size()));
  dfa.set_initial(initial);
  for (size_t i = 0; i < table.size(); ++i) {
    if (accepting[i]) dfa.SetAccepting(static_cast<StateId>(i));
    for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
      dfa.SetNext(static_cast<StateId>(i), a, table[i][a]);
    }
  }
  return dfa;
}

inline Nfa Intersect(const Nfa& a_in, const Nfa& b_in) {
  const Nfa a = reference::RemoveEpsilons(a_in);
  const Nfa b = reference::RemoveEpsilons(b_in);
  // b's arcs per state, stably sorted by symbol.
  std::vector<std::vector<Nfa::Arc>> b_sorted(b.num_states());
  for (StateId s = 0; s < b.num_states(); ++s) {
    b_sorted[s] = b.ArcsFrom(s);
    std::stable_sort(b_sorted[s].begin(), b_sorted[s].end(),
                     [](const Nfa::Arc& x, const Nfa::Arc& y) {
                       return x.first < y.first;
                     });
  }
  Nfa out(a.num_symbols());
  std::unordered_map<uint64_t, StateId> ids;
  std::vector<std::pair<StateId, StateId>> pairs;
  auto get = [&](StateId x, StateId y) {
    const uint64_t key =
        (static_cast<uint64_t>(x) << 32) | static_cast<uint32_t>(y);
    auto [it, inserted] = ids.emplace(key, 0);
    if (inserted) {
      it->second = out.AddState();
      pairs.emplace_back(x, y);
      if (a.IsAccepting(x) && b.IsAccepting(y)) out.SetAccepting(it->second);
    }
    return it->second;
  };
  for (StateId x : a.InitialStates()) {
    for (StateId y : b.InitialStates()) out.SetInitial(get(x, y));
  }
  for (StateId from = 0; from < out.num_states(); ++from) {
    auto [x, y] = pairs[from];
    for (const Nfa::Arc& ax : a.ArcsFrom(x)) {
      auto [lo, hi] = std::equal_range(
          b_sorted[y].begin(), b_sorted[y].end(), Nfa::Arc{ax.first, 0},
          [](const Nfa::Arc& p, const Nfa::Arc& q) {
            return p.first < q.first;
          });
      for (auto it = lo; it != hi; ++it) {
        out.AddTransition(from, ax.first, get(ax.second, it->second));
      }
    }
  }
  return out;
}

// The untrusted RegularRelation constructor: restrict to valid
// convolutions, then trim.
inline RegularRelation Validated(int base_size, int arity, const Nfa& nfa) {
  TupleAlphabet ta(base_size, arity);
  Nfa valid = reference::Intersect(nfa, ValidConvolutionNfa(ta));
  return RegularRelation(base_size, arity, reference::Trim(valid),
                         /*trusted_valid=*/true);
}

inline RegularRelation Complement(const RegularRelation& rel) {
  return reference::Validated(rel.base_size(), rel.arity(),
                              ComplementNfa(rel.nfa()));
}

inline RegularRelation PermuteTapes(const RegularRelation& rel,
                                    const std::vector<int>& tape_map) {
  const TupleAlphabet& ta = rel.tuple_alphabet();
  const Nfa& nfa = rel.nfa();
  const int new_arity = static_cast<int>(tape_map.size());
  TupleAlphabet out_ta(rel.base_size(), new_arity);
  Nfa out(out_ta.num_symbols());
  out.AddStates(nfa.num_states());
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (nfa.IsInitial(s)) out.SetInitial(s);
    if (nfa.IsAccepting(s)) out.SetAccepting(s);
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (arc.first == kEpsilon) {
        out.AddTransition(s, kEpsilon, arc.second);
        continue;
      }
      TupleLetter src = ta.Decode(arc.first);
      TupleLetter dst(new_arity);
      for (int t = 0; t < new_arity; ++t) dst[t] = src[tape_map[t]];
      out.AddTransition(s, out_ta.Encode(dst), arc.second);
    }
  }
  return RegularRelation(rel.base_size(), new_arity, std::move(out),
                         /*trusted_valid=*/true);
}

inline RegularRelation Cylindrify(const RegularRelation& rel, int new_arity,
                                  const std::vector<int>& positions) {
  const Nfa base = reference::RemoveEpsilons(rel.nfa());
  TupleAlphabet out_ta(rel.base_size(), new_arity);
  TupleAlphabet own_ta(rel.base_size(), rel.arity());
  Nfa out(out_ta.num_symbols());
  out.AddStates(base.num_states() + 1);
  const StateId done = base.num_states();
  out.SetAccepting(done);
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) {
      out.SetAccepting(s);
      out.AddTransition(s, kEpsilon, done);
    }
  }
  std::vector<std::vector<Nfa::Arc>> by_own(own_ta.num_symbols());
  for (StateId s = 0; s < base.num_states(); ++s) {
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      by_own[arc.first].emplace_back(s, arc.second);
    }
  }
  TupleLetter own(rel.arity());
  for (Symbol letter = 0; letter < out_ta.num_symbols(); ++letter) {
    TupleLetter full = out_ta.Decode(letter);
    bool own_all_pad = true;
    for (int t = 0; t < rel.arity(); ++t) {
      own[t] = full[positions[t]];
      if (own[t] != kPad) own_all_pad = false;
    }
    if (own_all_pad) {
      out.AddTransition(done, letter, done);
      continue;
    }
    for (const auto& [s, target] : by_own[own_ta.Encode(own)]) {
      out.AddTransition(s, letter, target);
    }
  }
  return reference::Validated(rel.base_size(), new_arity, out);
}

inline RegularRelation Project(const RegularRelation& rel,
                               const std::vector<int>& tapes) {
  const TupleAlphabet& ta = rel.tuple_alphabet();
  const int new_arity = static_cast<int>(tapes.size());
  TupleAlphabet out_ta(rel.base_size(), new_arity);
  const Nfa base = reference::RemoveEpsilons(rel.nfa());
  Nfa out(out_ta.num_symbols());
  out.AddStates(base.num_states());
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (base.IsInitial(s)) out.SetInitial(s);
    if (base.IsAccepting(s)) out.SetAccepting(s);
    for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
      TupleLetter src = ta.Decode(arc.first);
      TupleLetter dst(new_arity);
      bool all_pad = true;
      for (int t = 0; t < new_arity; ++t) {
        dst[t] = src[tapes[t]];
        if (dst[t] != kPad) all_pad = false;
      }
      out.AddTransition(s, all_pad ? kEpsilon : out_ta.Encode(dst),
                        arc.second);
    }
  }
  return RegularRelation(rel.base_size(), new_arity,
                         reference::Trim(reference::RemoveEpsilons(out)),
                         /*trusted_valid=*/true);
}

// Composition of binary relations: join r1's tape 1 to r2's tape 0 over
// three tapes, then project onto the outer two.
inline RegularRelation Compose(const RegularRelation& r1,
                               const RegularRelation& r2) {
  RegularRelation c1 = reference::Cylindrify(r1, 3, {0, 1});
  RegularRelation c2 = reference::Cylindrify(r2, 3, {1, 2});
  RegularRelation joined(r1.base_size(), 3,
                         reference::Intersect(c1.nfa(), c2.nfa()),
                         /*trusted_valid=*/true);
  return reference::Project(joined, {0, 2});
}

inline RegularRelation EditDistanceAtMost(int base_size, int k) {
  if (k == 0) return EqualityRelation(base_size);
  RegularRelation result = OneEditOrEqualRelation(base_size);
  const RegularRelation step = result;
  for (int i = 1; i < k; ++i) result = reference::Compose(result, step);
  return result;
}

// ---- the set-based leaf and table path ---------------------------------------

// A table of heap rows over node variables (rows distinct).
struct SetTable {
  std::vector<int> vars;
  std::vector<std::vector<NodeId>> rows;

  int ColumnOf(int var) const {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i] == var) return static_cast<int>(i);
    }
    return -1;
  }
};

// Distinct projection in first-occurrence order.
inline SetTable ProjectDistinct(const SetTable& table,
                                const std::vector<int>& vars) {
  SetTable out;
  out.vars = vars;
  std::set<std::vector<NodeId>> seen;
  for (const std::vector<NodeId>& row : table.rows) {
    std::vector<NodeId> projected;
    for (int v : vars) projected.push_back(row[table.ColumnOf(v)]);
    if (seen.insert(projected).second) out.rows.push_back(projected);
  }
  return out;
}

// True when every variable of `vars` is pinned by `fixed` or a seed
// column.
inline bool VarsBound(const std::vector<int>& vars,
                      const std::vector<NodeId>& fixed,
                      const SetTable* seeds) {
  for (int v : vars) {
    if (fixed[v] >= 0) continue;
    if (seeds != nullptr && seeds->ColumnOf(v) >= 0) continue;
    return false;
  }
  return true;
}

// The direction a leaf runs (the operator layer's ResolveLeafDirection
// without graph recording).
inline SearchDirection LeafDirection(SearchDirection planned,
                                     const EvalOptions& options,
                                     const ComponentSpec& comp,
                                     const std::vector<NodeId>& fixed,
                                     const SetTable* seeds) {
  SearchDirection dir = options.direction != SearchDirection::kAuto
                            ? options.direction
                            : planned;
  if (dir == SearchDirection::kAuto) dir = SearchDirection::kForward;
  if (dir == SearchDirection::kBidirectional &&
      !(VarsBound(comp.start_vars, fixed, seeds) &&
        VarsBound(comp.end_vars, fixed, seeds))) {
    dir = VarsBound(comp.end_vars, fixed, seeds) ? SearchDirection::kBackward
                                                 : SearchDirection::kForward;
  }
  if (dir == SearchDirection::kBidirectional && seeds != nullptr &&
      seeds->rows.size() > 128) {
    dir = SearchDirection::kForward;
  }
  return dir;
}

// One ReachabilityScan leaf into a std::set of heap rows, with its
// operator entry.
inline Status ScanLeaf(const ResolvedQuery& rq, const ComponentSpec& comp,
                       const EvalOptions& options,
                       const std::vector<NodeId>& fixed,
                       const SetTable* seeds, double est_rows,
                       SearchDirection planned, int num_threads,
                       EvalStats& stats,
                       std::set<std::vector<NodeId>>* results) {
  OperatorStats op;
  op.op = "ReachabilityScan";
  op.detail = "atoms";
  for (int idx : comp.atom_indices) op.detail += " " + std::to_string(idx);
  op.est_rows = est_rows;
  op.rows_in = seeds != nullptr ? seeds->rows.size() : 0;
  SearchDirection direction =
      LeafDirection(planned, options, comp, fixed, seeds);
  CancellationToken local_cancel;
  CancellationToken* cancel = options.cancellation.get();
  if (cancel == nullptr && num_threads > 1) cancel = &local_cancel;

  const ResolvedAtom& atom = rq.atoms[comp.atom_indices[0]];
  std::vector<const RegularRelation*> languages;
  for (int r : comp.relation_indices) {
    languages.push_back(rq.relations()[r].relation);
  }
  auto collect = [&](const ResolvedTerm& term, std::vector<NodeId>* out) {
    const NodeId bound = term.is_const ? term.node : fixed[term.var];
    if (bound >= 0) {
      out->push_back(bound);
      return true;
    }
    const int seed_col = (seeds != nullptr && !term.is_const)
                             ? seeds->ColumnOf(term.var)
                             : -1;
    if (seed_col < 0) return false;
    std::set<NodeId> distinct;
    for (const std::vector<NodeId>& row : seeds->rows) {
      distinct.insert(row[seed_col]);
    }
    out->assign(distinct.begin(), distinct.end());
    return true;
  };
  std::vector<NodeId> sources, targets;
  const std::vector<NodeId>* source_ptr = nullptr;
  const std::vector<NodeId>* target_ptr = nullptr;
  if (direction != SearchDirection::kBackward) {
    source_ptr = collect(atom.from, &sources) ? &sources : nullptr;
  }
  if (direction != SearchDirection::kForward) {
    target_ptr = collect(atom.to, &targets) ? &targets : nullptr;
  }
  if (direction == SearchDirection::kBidirectional) {
    if (source_ptr == nullptr || target_ptr == nullptr) {
      direction = target_ptr != nullptr ? SearchDirection::kBackward
                                        : SearchDirection::kForward;
    } else if (sources.size() * targets.size() > 4) {
      direction = targets.size() < sources.size()
                      ? SearchDirection::kBackward
                      : SearchDirection::kForward;
    }
  }
  op.direction = SearchDirectionName(direction);
  const std::vector<NodeId>* anchors =
      direction == SearchDirection::kBackward ? target_ptr : source_ptr;
  const size_t num_anchors =
      anchors != nullptr ? anchors->size() : rq.graph->num_nodes();
  op.threads = direction == SearchDirection::kBidirectional
                   ? 1
                   : static_cast<int>(std::clamp<size_t>(
                         num_anchors, 1, static_cast<size_t>(num_threads)));

  ReachabilityScanStats scan_stats;
  uint64_t meet_checks = 0;
  const RowBuffer pairs =
      ReachabilityPairsDirected(
          *rq.graph,
          ecrpq::BuildScanLanguage(rq.graph->alphabet().size(), languages),
          *rq.index, source_ptr, target_ptr, direction, &scan_stats,
          &meet_checks, num_threads, cancel);
  op.frontier_expansions += scan_stats.frontier_expansions;
  op.visited_configs += scan_stats.visited_states;
  op.meet_checks += meet_checks;
  stats.arcs_explored += scan_stats.frontier_expansions;
  switch (direction) {
    case SearchDirection::kBidirectional:
      stats.start_assignments += sources.size() * targets.size();
      break;
    case SearchDirection::kBackward:
      stats.start_assignments +=
          target_ptr != nullptr ? targets.size() : rq.graph->num_nodes();
      break;
    default:
      stats.start_assignments +=
          source_ptr != nullptr ? sources.size() : rq.graph->num_nodes();
      break;
  }
  std::set<std::vector<NodeId>> seed_set;
  if (seeds != nullptr) {
    seed_set.insert(seeds->rows.begin(), seeds->rows.end());
  }
  const size_t before = results->size();
  std::vector<NodeId> binding, key;
  for (std::span<const NodeId> pair : pairs) {
    const NodeId u = pair[0], v = pair[1];
    if (atom.from.is_const && u != atom.from.node) continue;
    if (atom.to.is_const && v != atom.to.node) continue;
    binding = fixed;
    bool ok = true;
    if (!atom.from.is_const) {
      if (binding[atom.from.var] >= 0 && binding[atom.from.var] != u) {
        ok = false;
      }
      binding[atom.from.var] = u;
    }
    if (ok && !atom.to.is_const) {
      if (binding[atom.to.var] >= 0 && binding[atom.to.var] != v) ok = false;
      if (ok) binding[atom.to.var] = v;
    }
    if (!ok) continue;
    if (seeds != nullptr) {
      key.clear();
      for (int var : seeds->vars) key.push_back(binding[var]);
      if (seed_set.count(key) == 0) continue;
    }
    std::vector<NodeId> assignment;
    for (int var : comp.vars) assignment.push_back(binding[var]);
    results->insert(std::move(assignment));
  }
  op.rows_out = results->size() - before;
  stats.operators.push_back(std::move(op));
  return Status::OK();
}

// True when `a` and `b` agree on the variables both bind.
inline bool RowsAgree(const SetTable& a, const std::vector<NodeId>& arow,
                      const SetTable& b, const std::vector<NodeId>& brow) {
  for (size_t bc = 0; bc < b.vars.size(); ++bc) {
    const int ac = a.ColumnOf(b.vars[bc]);
    if (ac >= 0 && arow[ac] != brow[bc]) return false;
  }
  return true;
}

// The semi-join: target rows agreeing with some filter row, in order.
inline bool SemiJoinFilter(SetTable* target, const SetTable& filter,
                           EvalStats& stats) {
  std::vector<int> target_cols;
  for (int v : filter.vars) {
    const int tc = target->ColumnOf(v);
    if (tc >= 0) target_cols.push_back(tc);
  }
  if (target_cols.empty()) return false;
  OperatorStats op;
  op.op = "SemiJoinFilter";
  op.rows_in = target->rows.size();
  for (int tc : target_cols) {
    op.detail += (op.detail.empty() ? "on v" : ",v") +
                 std::to_string(target->vars[tc]);
  }
  op.build_rows = filter.rows.size();
  op.probe_rows = target->rows.size();
  std::vector<std::vector<NodeId>> kept;
  for (const std::vector<NodeId>& trow : target->rows) {
    for (const std::vector<NodeId>& frow : filter.rows) {
      if (RowsAgree(*target, trow, filter, frow)) {
        kept.push_back(trow);
        break;
      }
    }
  }
  const bool shrank = kept.size() < target->rows.size();
  target->rows = std::move(kept);
  if (shrank) {
    op.rows_out = target->rows.size();
    stats.operators.push_back(std::move(op));
  }
  return shrank;
}

// The projected join: distinct projections of the joined rows in
// left-row order, each row's matches in right-row order.
inline SetTable HashJoin(const SetTable& left, const SetTable& right,
                         const std::vector<int>& project, EvalStats& stats) {
  OperatorStats op;
  op.op = "HashJoin";
  op.rows_in = left.rows.size() + right.rows.size();
  for (int v : right.vars) {
    if (left.ColumnOf(v) < 0) continue;
    op.detail += (op.detail.empty() ? "on" : ",");
    op.detail += " v" + std::to_string(v);
  }
  if (op.detail.empty()) op.detail = "cross";
  op.detail += ", project onto";
  for (int v : project) op.detail += " v" + std::to_string(v);
  op.build_rows = right.rows.size();
  op.probe_rows = left.rows.size();
  SetTable out;
  out.vars = project;
  std::set<std::vector<NodeId>> seen;
  for (const std::vector<NodeId>& lrow : left.rows) {
    for (const std::vector<NodeId>& rrow : right.rows) {
      if (!RowsAgree(left, lrow, right, rrow)) continue;
      ++stats.join_tuples;
      std::vector<NodeId> row;
      for (int v : project) {
        const int lc = left.ColumnOf(v);
        row.push_back(lc >= 0 ? lrow[lc] : rrow[right.ColumnOf(v)]);
      }
      if (seen.insert(row).second) out.rows.push_back(std::move(row));
    }
  }
  op.rows_out = out.rows.size();
  stats.operators.push_back(std::move(op));
  return out;
}

// The final join, depth-first in table order: `emit` gets each binding
// (indexed by node variable) and returns false to stop.
inline void StreamJoin(
    const std::vector<SetTable>& tables, size_t num_vars, EvalStats& stats,
    const std::function<bool(const std::vector<NodeId>&)>& emit) {
  OperatorStats op;
  op.op = "HashJoin";
  op.detail = "streamed over " + std::to_string(tables.size()) + " tables";
  for (size_t k = 0; k < tables.size(); ++k) {
    op.rows_in += tables[k].rows.size();
    if (k > 0) op.build_rows += tables[k].rows.size();
  }
  std::vector<NodeId> binding(num_vars, -1);
  auto extend = [&](auto& self, size_t k) -> bool {
    if (k == tables.size()) {
      ++stats.join_tuples;
      ++op.rows_out;
      return emit(binding);
    }
    if (k > 0) ++op.probe_rows;
    const SetTable& t = tables[k];
    const std::vector<NodeId> saved = binding;
    for (const std::vector<NodeId>& row : t.rows) {
      bool ok = true;
      for (size_t c = 0; c < t.vars.size() && ok; ++c) {
        ok = saved[t.vars[c]] < 0 || saved[t.vars[c]] == row[c];
      }
      if (!ok) continue;
      for (size_t c = 0; c < t.vars.size(); ++c) binding[t.vars[c]] = row[c];
      if (!self(self, k + 1)) return false;
    }
    binding = saved;
    return true;
  };
  extend(extend, 0);
  stats.operators.push_back(std::move(op));
}

// The plan executor over set-based leaves and heap-row tables, for a
// query whose product plan is all scans: its distinct head tuples go to
// `sink` in emission order.
inline Status EvaluateScanPlan(const GraphDb& graph, const Query& query,
                               const EvalOptions& options,
                               MaterializingSink& sink, EvalStats& stats) {
  auto resolved = ResolveQuery(graph, query);
  if (!resolved.ok()) return resolved.status();
  ResolvedQuery& rq = resolved.value();
  rq.index = GraphIndex::Build(graph);
  stats.engine = "product";
  EvalOptions planning = options;
  planning.engine = Engine::kProduct;
  const PhysicalPlan plan = PlanQuery(query, *rq.compiled, *rq.index, planning);

  const int num_threads = ResolveNumThreads(options.num_threads);
  const double V = std::max(1, graph.num_nodes());
  constexpr size_t kMaxSeedRows = 1 << 16;
  std::vector<SetTable> tables;
  const std::vector<NodeId> fixed(query.node_variables().size(), -1);
  for (const PlannedComponent& pc : plan.components) {
    const ComponentSpec comp = BuildComponentSpec(rq, pc.atom_indices);
    if (!IsReachabilityScanComponent(rq, comp)) {
      return Status::InvalidArgument("not an all-scan plan");
    }
    SetTable seeds;
    const SetTable* seeds_ptr = nullptr;
    if (pc.sideways && !pc.shared_vars.empty()) {
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
      std::set<int> anchor_vars(comp.vars.begin(), comp.vars.end());
      if (pc.direction != SearchDirection::kBackward) {
        anchor_vars.insert(comp.start_vars.begin(), comp.start_vars.end());
      }
      if (pc.direction == SearchDirection::kBackward ||
          pc.direction == SearchDirection::kBidirectional) {
        anchor_vars.insert(comp.end_vars.begin(), comp.end_vars.end());
      }
      int covered = 0;
      for (int v : anchor_vars) covered += seeded_vars.count(v);
      std::vector<SetTable> parts;
      double rows = 1.0;
      for (const auto& [j, vars] : groups) {
        if (covered == 0) break;
        parts.push_back(reference::ProjectDistinct(tables[j], vars));
        rows *= static_cast<double>(parts.back().rows.size());
      }
      if (covered > 0 && rows <= kMaxSeedRows && rows < std::pow(V, covered)) {
        seeds = std::move(parts[0]);
        for (size_t k = 1; k < parts.size(); ++k) {
          SetTable crossed;
          crossed.vars = seeds.vars;
          crossed.vars.insert(crossed.vars.end(), parts[k].vars.begin(),
                              parts[k].vars.end());
          for (const std::vector<NodeId>& a : seeds.rows) {
            for (const std::vector<NodeId>& b : parts[k].rows) {
              std::vector<NodeId> row = a;
              row.insert(row.end(), b.begin(), b.end());
              crossed.rows.push_back(std::move(row));
            }
          }
          seeds = std::move(crossed);
        }
        seeds_ptr = &seeds;
      }
    }
    std::set<std::vector<NodeId>> results;
    Status st = ScanLeaf(rq, comp, options, fixed, seeds_ptr, pc.est_rows,
                         pc.direction, pc.demoted_serial ? 1 : num_threads,
                         stats, &results);
    if (!st.ok()) return st;
    if (results.empty()) return Status::OK();
    SetTable table;
    table.vars = comp.vars;
    table.rows.assign(results.begin(), results.end());
    tables.push_back(std::move(table));
  }

  bool changed = tables.size() > 1;
  for (int rounds = 0;
       changed && rounds < static_cast<int>(tables.size()) + 2; ++rounds) {
    changed = false;
    for (size_t i = 0; i < tables.size(); ++i) {
      for (size_t j = 0; j < tables.size(); ++j) {
        if (i == j) continue;
        if (SemiJoinFilter(&tables[i], tables[j], stats)) changed = true;
        if (tables[i].rows.empty()) return Status::OK();
      }
    }
  }

  for (const ProjectionStep& step : plan.projections) {
    SetTable& left = tables[step.left];
    if (step.right < 0) {
      OperatorStats op;
      op.op = "Project";
      op.detail = "onto";
      for (int v : step.keep) op.detail += " v" + std::to_string(v);
      op.rows_in = left.rows.size();
      left = reference::ProjectDistinct(left, step.keep);
      op.rows_out = left.rows.size();
      stats.operators.push_back(std::move(op));
    } else {
      left = HashJoin(left, tables[step.right], step.keep, stats);
      tables.erase(tables.begin() + step.right);
    }
    if (tables[step.left].rows.empty()) return Status::OK();
  }

  std::vector<int> head_vars;
  for (const NodeTerm& term : query.head_nodes()) {
    head_vars.push_back(query.NodeVarIndex(term.name));
  }
  std::set<std::vector<NodeId>> heads;
  std::vector<NodeId> head(head_vars.size());
  StreamJoin(tables, query.node_variables().size(), stats,
             [&](const std::vector<NodeId>& binding) {
               for (size_t k = 0; k < head_vars.size(); ++k) {
                 head[k] = binding[head_vars[k]];
               }
               return !heads.insert(head).second || sink.Emit(head, nullptr);
             });
  return Status::OK();
}

}  // namespace ecrpq::reference

#endif  // ECRPQ_TESTS_REFERENCE_OPS_H_
