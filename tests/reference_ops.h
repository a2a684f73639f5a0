// Reference versions of the automaton and relation constructions that the
// library builds on flat arc tables: ε-removal by per-state closure,
// trimming over per-state predecessor lists, subset construction over a
// std::map of subsets, the product over a hash map of pair ids with a
// binary search per arc, and the relation algebra that
// decodes every arc letter into a TupleLetter. Tests assert that the
// library's automata are byte-identical to these: the same state
// numbering, flags and arc order, as printed by Dump.

#ifndef ECRPQ_TESTS_REFERENCE_OPS_H_
#define ECRPQ_TESTS_REFERENCE_OPS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "automata/operations.h"
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

}  // namespace ecrpq::reference

#endif  // ECRPQ_TESTS_REFERENCE_OPS_H_
