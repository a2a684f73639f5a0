#include "automata/operations.h"

#include <algorithm>
#include <bit>
#include <map>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace ecrpq {

namespace {

// Copies `src` into `dst` with all state ids shifted by `offset`.
// Returns the offset of the first copied state.
StateId AppendStates(const Nfa& src, Nfa* dst, bool keep_initial,
                     bool keep_accepting) {
  StateId offset = dst->AddStates(src.num_states());
  for (StateId s = 0; s < src.num_states(); ++s) {
    if (keep_initial && src.IsInitial(s)) dst->SetInitial(offset + s);
    if (keep_accepting && src.IsAccepting(s)) dst->SetAccepting(offset + s);
    for (const Nfa::Arc& arc : src.ArcsFrom(s)) {
      dst->AddTransition(offset + s, arc.first, offset + arc.second);
    }
  }
  return offset;
}

// One hash key for a pair of non-negative ids.
uint64_t PairKey(int32_t x, int32_t y) {
  return (static_cast<uint64_t>(x) << 32) | static_cast<uint32_t>(y);
}

// Dense ids of state pairs: one open-addressing table of packed pair keys
// (linear probing, doubled at half load).
class PairIds {
 public:
  // The id of `key`; inserts it with id `next` when absent. second is
  // true on insertion.
  std::pair<StateId, bool> Insert(uint64_t key, StateId next) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id < 0) {
        slot = {key, next};
        ++size_;
        return {next, true};
      }
      if (slot.key == key) return {slot.id, false};
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    StateId id = -1;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id < 0) continue;
      size_t i = Home(slot.key);
      while (slots_[i].id >= 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

// Dense ids of state subsets, in insertion order: the subsets lie back to
// back in one array, found through an open-addressing table of ids keyed
// by a hash of the subset (linear probing, doubled at half load).
class SubsetIds {
 public:
  // The id of `set`; appends it with the next id when absent. second is
  // true on insertion.
  std::pair<StateId, bool> Insert(std::span<const StateId> set) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const uint64_t hash = Hash(set);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const StateId id = slots_[i];
      if (id < 0) {
        slots_[i] = static_cast<StateId>(hashes_.size());
        hashes_.push_back(hash);
        states_.insert(states_.end(), set.begin(), set.end());
        starts_.push_back(states_.size());
        return {slots_[i], true};
      }
      if (hashes_[id] == hash && std::ranges::equal(Get(id), set)) {
        return {id, false};
      }
    }
  }

  // Valid until the next Insert.
  std::span<const StateId> Get(StateId id) const {
    return {states_.data() + starts_[id], states_.data() + starts_[id + 1]};
  }

  size_t size() const { return hashes_.size(); }

 private:
  static uint64_t Hash(std::span<const StateId> set) {
    uint64_t h = set.size();
    for (StateId s : set) {
      h = (h ^ static_cast<uint32_t>(s)) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    }
    return h;
  }

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), -1);
    shift_ = 64 - std::countr_zero(slots_.size());
    const size_t mask = slots_.size() - 1;
    for (StateId id = 0; id < static_cast<StateId>(hashes_.size()); ++id) {
      size_t i = Home(hashes_[id]);
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<StateId> states_;
  std::vector<size_t> starts_{0};
  std::vector<uint64_t> hashes_;  // per id
  std::vector<StateId> slots_;    // ids, -1 = empty
  int shift_ = 64;
};

std::vector<bool> ReachableStates(const Nfa& nfa) {
  std::vector<bool> seen(nfa.num_states(), false);
  std::vector<StateId> stack;
  for (StateId s : nfa.InitialStates()) {
    seen[s] = true;
    stack.push_back(s);
  }
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (!seen[arc.second]) {
        seen[arc.second] = true;
        stack.push_back(arc.second);
      }
    }
  }
  return seen;
}

std::vector<bool> CoReachableStates(const Nfa& nfa) {
  // Predecessor lists in one array: state t owns [start[t], start[t+1]).
  const int n = nfa.num_states();
  std::vector<size_t> start(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) ++start[arc.second + 1];
  }
  for (int t = 0; t < n; ++t) start[t + 1] += start[t];
  std::vector<StateId> preds(start[n]);
  std::vector<size_t> fill(start.begin(), start.end() - 1);
  for (StateId s = 0; s < n; ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) preds[fill[arc.second]++] = s;
  }
  std::vector<bool> seen(n, false);
  std::vector<StateId> stack;
  for (StateId s : nfa.AcceptingStates()) {
    seen[s] = true;
    stack.push_back(s);
  }
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (size_t i = start[s]; i < start[s + 1]; ++i) {
      if (!seen[preds[i]]) {
        seen[preds[i]] = true;
        stack.push_back(preds[i]);
      }
    }
  }
  return seen;
}

}  // namespace

ArcsBySymbol::ArcsBySymbol(const Nfa& nfa) {
  offsets_.reserve(nfa.num_states() + 1);
  arcs_.reserve(nfa.num_transitions());
  offsets_.push_back(0);
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    const auto& arcs = nfa.ArcsFrom(s);
    arcs_.insert(arcs_.end(), arcs.begin(), arcs.end());
    std::stable_sort(arcs_.begin() + offsets_.back(), arcs_.end(),
                     [](const Nfa::Arc& x, const Nfa::Arc& y) {
                       return x.first < y.first;
                     });
    offsets_.push_back(arcs_.size());
  }
  // A run starts at a state's first arc and wherever the symbol changes.
  auto starts_run = [this](StateId s, size_t i) {
    return i == offsets_[s] || arcs_[i].first != arcs_[i - 1].first;
  };
  size_t num_runs = 0;
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (size_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
      if (starts_run(s, i)) ++num_runs;
    }
  }
  // At most a quarter full: a lookup for an absent symbol, the common
  // case in a subset simulation, ends at an empty slot within few probes.
  runs_.assign(std::max<size_t>(2, std::bit_ceil(4 * num_runs)), 0);
  shift_ = 64 - std::countr_zero(runs_.size());
  const size_t mask = runs_.size() - 1;
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (size_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
      if (!starts_run(s, i)) continue;
      size_t slot = Home(s, arcs_[i].first);
      while (runs_[slot] != 0) slot = (slot + 1) & mask;
      runs_[slot] = static_cast<uint32_t>(i + 1);
    }
  }
}

Nfa RemoveEpsilons(const Nfa& nfa) {
  if (!nfa.HasEpsilonArcs()) return nfa;
  const int n = nfa.num_states();
  std::vector<int> letter_arcs(n, 0);  // non-ε arcs per state
  for (StateId s = 0; s < n; ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (arc.first != kEpsilon) ++letter_arcs[s];
    }
  }
  Nfa out(nfa.num_symbols());
  out.AddStates(n);
  // in_closure[c] == s + 1 marks c as in the ε-closure of s, so one array
  // serves every state.
  std::vector<StateId> in_closure(n, 0);
  std::vector<StateId> closure;
  std::vector<StateId> stack;
  for (StateId s = 0; s < n; ++s) {
    in_closure[s] = s + 1;
    closure.assign(1, s);
    stack.assign(1, s);
    while (!stack.empty()) {
      StateId t = stack.back();
      stack.pop_back();
      for (const Nfa::Arc& arc : nfa.ArcsFrom(t)) {
        if (arc.first == kEpsilon && in_closure[arc.second] != s + 1) {
          in_closure[arc.second] = s + 1;
          closure.push_back(arc.second);
          stack.push_back(arc.second);
        }
      }
    }
    std::sort(closure.begin(), closure.end());
    size_t count = 0;
    bool accepting = false;
    for (StateId c : closure) {
      count += letter_arcs[c];
      if (nfa.IsAccepting(c)) accepting = true;
    }
    out.ReserveArcs(s, count);
    for (StateId c : closure) {
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

const Nfa& EpsilonFree(const Nfa& nfa, std::optional<Nfa>* storage) {
  if (!nfa.HasEpsilonArcs()) return nfa;
  return storage->emplace(RemoveEpsilons(nfa));
}

Nfa Trim(const Nfa& nfa) {
  std::vector<bool> fwd = ReachableStates(nfa);
  std::vector<bool> bwd = CoReachableStates(nfa);
  std::vector<StateId> remap(nfa.num_states(), -1);
  Nfa out(nfa.num_symbols());
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (fwd[s] && bwd[s]) {
      remap[s] = out.AddState();
      out.SetInitial(remap[s], nfa.IsInitial(s));
      out.SetAccepting(remap[s], nfa.IsAccepting(s));
    }
  }
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (remap[s] < 0) continue;
    size_t kept = 0;
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (remap[arc.second] >= 0) ++kept;
    }
    out.ReserveArcs(remap[s], kept);
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (remap[arc.second] >= 0) {
        out.AddTransition(remap[s], arc.first, remap[arc.second]);
      }
    }
  }
  return out;
}

Nfa Reverse(const Nfa& nfa) {
  Nfa out(nfa.num_symbols());
  out.AddStates(nfa.num_states());
  std::vector<size_t> in_degree(nfa.num_states(), 0);
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) ++in_degree[arc.second];
  }
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    out.ReserveArcs(s, in_degree[s]);
  }
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (nfa.IsInitial(s)) out.SetAccepting(s);
    if (nfa.IsAccepting(s)) out.SetInitial(s);
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      out.AddTransition(arc.second, arc.first, s);
    }
  }
  return out;
}

Nfa UnionNfa(const Nfa& a, const Nfa& b) {
  ECRPQ_DCHECK(a.num_symbols() == b.num_symbols());
  Nfa out(a.num_symbols());
  AppendStates(a, &out, /*keep_initial=*/true, /*keep_accepting=*/true);
  AppendStates(b, &out, /*keep_initial=*/true, /*keep_accepting=*/true);
  return out;
}

Nfa ConcatNfa(const Nfa& a, const Nfa& b) {
  ECRPQ_DCHECK(a.num_symbols() == b.num_symbols());
  Nfa out(a.num_symbols());
  StateId a_off =
      AppendStates(a, &out, /*keep_initial=*/true, /*keep_accepting=*/false);
  StateId b_off =
      AppendStates(b, &out, /*keep_initial=*/false, /*keep_accepting=*/true);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (!a.IsAccepting(s)) continue;
    for (StateId t = 0; t < b.num_states(); ++t) {
      if (b.IsInitial(t)) {
        out.AddTransition(a_off + s, kEpsilon, b_off + t);
      }
    }
  }
  return out;
}

Nfa StarNfa(const Nfa& a) {
  Nfa out = PlusNfa(a);
  StateId start = out.AddState();
  out.SetInitial(start);
  out.SetAccepting(start);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsInitial(s)) out.AddTransition(start, kEpsilon, s);
  }
  return out;
}

Nfa PlusNfa(const Nfa& a) {
  Nfa out(a.num_symbols());
  AppendStates(a, &out, /*keep_initial=*/true, /*keep_accepting=*/true);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (!a.IsAccepting(s)) continue;
    for (StateId t = 0; t < a.num_states(); ++t) {
      if (a.IsInitial(t)) out.AddTransition(s, kEpsilon, t);
    }
  }
  return out;
}

Nfa OptionalNfa(const Nfa& a) {
  Nfa out(a.num_symbols());
  AppendStates(a, &out, /*keep_initial=*/true, /*keep_accepting=*/true);
  StateId start = out.AddState();
  out.SetInitial(start);
  out.SetAccepting(start);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.IsInitial(s)) out.AddTransition(start, kEpsilon, s);
  }
  return out;
}

Nfa IntersectNfa(const Nfa& a_in, const Nfa& b_in) {
  ECRPQ_DCHECK(a_in.num_symbols() == b_in.num_symbols());
  std::optional<Nfa> a_storage;
  std::optional<Nfa> b_storage;
  const Nfa& a = EpsilonFree(a_in, &a_storage);
  const Nfa& b = EpsilonFree(b_in, &b_storage);
  const ArcsBySymbol b_arcs(b);
  Nfa out(a.num_symbols());

  // On-the-fly product over reachable pairs only, numbered in BFS order;
  // pairs[id] is the (a-state, b-state) of product state id.
  PairIds ids;
  std::vector<std::pair<StateId, StateId>> pairs;
  auto get = [&](StateId x, StateId y) {
    auto [id, inserted] = ids.Insert(PairKey(x, y), out.num_states());
    if (inserted) {
      out.AddState();
      pairs.emplace_back(x, y);
      if (a.IsAccepting(x) && b.IsAccepting(y)) out.SetAccepting(id);
    }
    return id;
  };
  for (StateId x : a.InitialStates()) {
    for (StateId y : b.InitialStates()) {
      out.SetInitial(get(x, y));
    }
  }
  // A product state's arcs follow a's arc order, and b's arc order within
  // one arc of a. first_arc[sym] is the index in b_arcs.From(y) of y's
  // first arc on `sym` while y's partner states are expanded (kNoArc
  // otherwise), so each arc of x finds its partners without a search.
  constexpr uint32_t kNoArc = UINT32_MAX;
  std::vector<uint32_t> first_arc(a.num_symbols(), kNoArc);
  std::vector<Nfa::Arc> arcs;
  for (StateId from = 0; from < out.num_states(); ++from) {
    auto [x, y] = pairs[from];
    const std::span<const Nfa::Arc> by = b_arcs.From(y);
    for (uint32_t i = static_cast<uint32_t>(by.size()); i-- > 0;) {
      first_arc[by[i].first] = i;
    }
    arcs.clear();
    for (const Nfa::Arc& ax : a.ArcsFrom(x)) {
      for (uint32_t i = first_arc[ax.first];
           i < by.size() && by[i].first == ax.first; ++i) {
        arcs.emplace_back(ax.first, get(ax.second, by[i].second));
      }
    }
    for (const Nfa::Arc& arc : by) first_arc[arc.first] = kNoArc;
    out.ReserveArcs(from, arcs.size());
    for (const Nfa::Arc& arc : arcs) {
      out.AddTransition(from, arc.first, arc.second);
    }
  }
  return out;
}

Dfa Determinize(const Nfa& nfa_in) {
  const Nfa nfa = RemoveEpsilons(nfa_in);
  const int num_symbols = nfa.num_symbols();
  // DFA state i is the subset with id i; ids follow discovery order.
  SubsetIds ids;
  std::vector<bool> accepting;
  auto intern = [&](std::span<const StateId> set) {
    auto [id, inserted] = ids.Insert(set);
    if (inserted) {
      bool acc = false;
      for (StateId s : set) acc = acc || nfa.IsAccepting(s);
      accepting.push_back(acc);
    }
    return id;
  };

  const StateId initial = intern(nfa.InitialStates());
  std::vector<StateId> table;  // row-major: num_symbols per DFA state
  // Successor sets per symbol, reused across DFA states.
  std::vector<std::vector<StateId>> next(num_symbols);
  for (StateId i = 0; i < static_cast<StateId>(ids.size()); ++i) {
    for (std::vector<StateId>& set : next) set.clear();
    for (StateId s : ids.Get(i)) {
      for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
        next[arc.first].push_back(arc.second);
      }
    }
    for (std::vector<StateId>& set : next) {
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
      table.push_back(intern(set));
    }
  }

  Dfa dfa(num_symbols, static_cast<int>(ids.size()));
  dfa.set_initial(initial);
  for (StateId i = 0; i < static_cast<StateId>(ids.size()); ++i) {
    if (accepting[i]) dfa.SetAccepting(i);
    for (Symbol a = 0; a < num_symbols; ++a) {
      dfa.SetNext(i, a, table[static_cast<size_t>(i) * num_symbols + a]);
    }
  }
  return dfa;
}

Dfa Minimize(const Dfa& dfa) {
  const int n = dfa.num_states();
  const int k = dfa.num_symbols();

  // Restrict to reachable states first.
  std::vector<bool> reach(n, false);
  std::vector<StateId> stack = {dfa.initial()};
  reach[dfa.initial()] = true;
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (Symbol a = 0; a < k; ++a) {
      StateId t = dfa.Next(s, a);
      if (!reach[t]) {
        reach[t] = true;
        stack.push_back(t);
      }
    }
  }

  // Moore partition refinement on reachable states.
  std::vector<int> cls(n, -1);
  for (StateId s = 0; s < n; ++s) {
    if (reach[s]) cls[s] = dfa.IsAccepting(s) ? 1 : 0;
  }
  int num_classes = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::vector<int>, int> sig_to_class;
    std::vector<int> new_cls(n, -1);
    for (StateId s = 0; s < n; ++s) {
      if (!reach[s]) continue;
      std::vector<int> sig;
      sig.reserve(k + 1);
      sig.push_back(cls[s]);
      for (Symbol a = 0; a < k; ++a) sig.push_back(cls[dfa.Next(s, a)]);
      auto [it, inserted] =
          sig_to_class.emplace(std::move(sig), static_cast<int>(sig_to_class.size()));
      new_cls[s] = it->second;
      (void)inserted;
    }
    int new_count = static_cast<int>(sig_to_class.size());
    if (new_count != num_classes) changed = true;
    cls = std::move(new_cls);
    num_classes = new_count;
  }

  Dfa out(k, num_classes);
  out.set_initial(cls[dfa.initial()]);
  for (StateId s = 0; s < n; ++s) {
    if (!reach[s]) continue;
    if (dfa.IsAccepting(s)) out.SetAccepting(cls[s]);
    for (Symbol a = 0; a < k; ++a) {
      out.SetNext(cls[s], a, cls[dfa.Next(s, a)]);
    }
  }
  return out;
}

Nfa ComplementNfa(const Nfa& nfa) {
  Dfa dfa = Determinize(nfa);
  dfa.ComplementInPlace();
  return dfa.ToNfa();
}

bool IsEmpty(const Nfa& nfa) {
  std::vector<bool> reach = ReachableStates(nfa);
  for (StateId s = 0; s < nfa.num_states(); ++s) {
    if (reach[s] && nfa.IsAccepting(s)) return false;
  }
  return true;
}

bool IsInfinite(const Nfa& nfa_in) {
  // Infinite iff the trimmed ε-free automaton has a non-ε cycle.
  Nfa nfa = Trim(RemoveEpsilons(nfa_in));
  const int n = nfa.num_states();
  // Iterative DFS cycle detection (colors: 0 white, 1 gray, 2 black).
  std::vector<int> color(n, 0);
  for (StateId root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<StateId, size_t>> stack = {{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [s, idx] = stack.back();
      const auto& arcs = nfa.ArcsFrom(s);
      if (idx < arcs.size()) {
        StateId t = arcs[idx++].second;
        if (color[t] == 1) return true;  // back edge
        if (color[t] == 0) {
          color[t] = 1;
          stack.emplace_back(t, 0);
        }
      } else {
        color[s] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

bool IsSubsetOf(const Nfa& a_in, const Nfa& b_in) {
  ECRPQ_DCHECK(a_in.num_symbols() == b_in.num_symbols());
  const Nfa a = RemoveEpsilons(a_in);
  const Nfa b = RemoveEpsilons(b_in);
  const ArcsBySymbol a_arcs(a);
  const ArcsBySymbol b_arcs(b);

  // b-subsets are interned (sorted state sets) with their acceptance;
  // successors are memoized per (subset, symbol), as many a-states meet
  // the same subset.
  SubsetIds subsets;
  std::vector<bool> subset_accepting;
  auto intern = [&](std::span<const StateId> set) {
    auto [id, inserted] = subsets.Insert(set);
    if (inserted) {
      bool acc = false;
      for (StateId y : set) acc = acc || b.IsAccepting(y);
      subset_accepting.push_back(acc);
    }
    return static_cast<int>(id);
  };
  std::unordered_map<uint64_t, int> successor;
  std::vector<StateId> next;
  auto step = [&](int sub, Symbol symbol) {
    auto [it, inserted] = successor.emplace(PairKey(sub, symbol), 0);
    if (inserted) {
      next.clear();
      for (StateId y : subsets.Get(sub)) {
        for (const Nfa::Arc& arc : b_arcs.On(y, symbol)) {
          next.push_back(arc.second);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      it->second = intern(next);
    }
    return it->second;
  };

  // Depth-first over reachable (a-state, b-subset) pairs. A pair where a
  // accepts and the subset does not is reached by a word of L(a) \ L(b).
  std::unordered_set<uint64_t> seen;
  std::vector<std::pair<StateId, int>> stack;
  auto counterexample = [&](StateId x, int sub) {
    if (!seen.insert(PairKey(x, sub)).second) return false;
    if (a.IsAccepting(x) && !subset_accepting[sub]) return true;
    stack.emplace_back(x, sub);
    return false;
  };
  const int initial = intern(b.InitialStates());
  for (StateId x : a.InitialStates()) {
    if (counterexample(x, initial)) return false;
  }
  while (!stack.empty()) {
    auto [x, sub] = stack.back();
    stack.pop_back();
    // One b-successor subset per symbol on x's arcs (sorted by symbol).
    std::span<const Nfa::Arc> arcs = a_arcs.From(x);
    for (size_t i = 0; i < arcs.size();) {
      const Symbol symbol = arcs[i].first;
      const int next_sub = step(sub, symbol);
      for (; i < arcs.size() && arcs[i].first == symbol; ++i) {
        if (counterexample(arcs[i].second, next_sub)) return false;
      }
    }
  }
  return true;
}

bool AreEquivalent(const Nfa& a, const Nfa& b) {
  return IsSubsetOf(a, b) && IsSubsetOf(b, a);
}

std::optional<Word> ShortestWord(const Nfa& nfa_in) {
  const Nfa nfa = RemoveEpsilons(nfa_in);
  std::vector<StateId> parent(nfa.num_states(), -1);
  std::vector<Symbol> via(nfa.num_states(), -1);
  std::vector<bool> seen(nfa.num_states(), false);
  std::queue<StateId> work;
  for (StateId s : nfa.InitialStates()) {
    seen[s] = true;
    work.push(s);
  }
  StateId goal = -1;
  // Check immediate acceptance.
  for (StateId s : nfa.InitialStates()) {
    if (nfa.IsAccepting(s)) return Word{};
  }
  while (!work.empty() && goal < 0) {
    StateId s = work.front();
    work.pop();
    for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
      if (!seen[arc.second]) {
        seen[arc.second] = true;
        parent[arc.second] = s;
        via[arc.second] = arc.first;
        if (nfa.IsAccepting(arc.second)) {
          goal = arc.second;
          break;
        }
        work.push(arc.second);
      }
    }
  }
  if (goal < 0) return std::nullopt;
  Word word;
  for (StateId s = goal; parent[s] >= 0 || via[s] >= 0; s = parent[s]) {
    word.push_back(via[s]);
    if (parent[s] < 0) break;
  }
  std::reverse(word.begin(), word.end());
  return word;
}

std::vector<Word> EnumerateWords(const Nfa& nfa_in, int max_count,
                                 int max_len) {
  const Nfa nfa = RemoveEpsilons(nfa_in);
  std::vector<Word> out;
  if (max_count <= 0) return out;

  // BFS over subset-construction states, expanding symbols in order; this
  // yields distinct words in length-then-lex order.
  struct Item {
    std::vector<StateId> set;
    Word word;
  };
  std::queue<Item> work;
  std::vector<StateId> init = nfa.InitialStates();
  std::sort(init.begin(), init.end());
  work.push({init, {}});
  while (!work.empty() && static_cast<int>(out.size()) < max_count) {
    Item item = std::move(work.front());
    work.pop();
    bool accepting = false;
    for (StateId s : item.set) accepting = accepting || nfa.IsAccepting(s);
    if (accepting) out.push_back(item.word);
    if (static_cast<int>(item.word.size()) >= max_len) continue;
    for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
      std::vector<StateId> next;
      for (StateId s : item.set) {
        for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
          if (arc.first == a) next.push_back(arc.second);
        }
      }
      if (next.empty()) continue;
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      Word w = item.word;
      w.push_back(a);
      work.push({std::move(next), std::move(w)});
    }
  }
  if (static_cast<int>(out.size()) > max_count) out.resize(max_count);
  return out;
}

namespace {
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? UINT64_MAX : s;
}
}  // namespace

uint64_t CountWordsOfLength(const Nfa& nfa_in, int len) {
  // Count distinct words via on-the-fly subset construction with a DP over
  // lengths. Subset states are interned; counts flow along DFA transitions.
  const Nfa nfa = RemoveEpsilons(nfa_in);
  SubsetIds sets;
  std::vector<StateId> init = nfa.InitialStates();
  std::sort(init.begin(), init.end());
  if (init.empty()) return 0;
  sets.Insert(init);

  std::unordered_map<StateId, uint64_t> current;
  current[0] = 1;
  for (int step = 0; step < len; ++step) {
    std::unordered_map<StateId, uint64_t> next;
    for (const auto& [id, count] : current) {
      std::vector<std::vector<StateId>> succ(nfa.num_symbols());
      for (StateId s : sets.Get(id)) {
        for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
          succ[arc.first].push_back(arc.second);
        }
      }
      for (Symbol a = 0; a < nfa.num_symbols(); ++a) {
        if (succ[a].empty()) continue;
        std::sort(succ[a].begin(), succ[a].end());
        succ[a].erase(std::unique(succ[a].begin(), succ[a].end()),
                      succ[a].end());
        const StateId t = sets.Insert(succ[a]).first;
        uint64_t& slot = next[t];
        slot = SaturatingAdd(slot, count);
      }
    }
    current = std::move(next);
    if (current.empty()) return 0;
  }
  uint64_t total = 0;
  for (const auto& [id, count] : current) {
    bool accepting = false;
    for (StateId s : sets.Get(id)) {
      accepting = accepting || nfa.IsAccepting(s);
    }
    if (accepting) total = SaturatingAdd(total, count);
  }
  return total;
}

uint64_t CountWordsUpTo(const Nfa& nfa, int len) {
  uint64_t total = 0;
  for (int l = 0; l <= len; ++l) {
    total = SaturatingAdd(total, CountWordsOfLength(nfa, l));
  }
  return total;
}

Nfa FromWords(int num_symbols, const std::vector<Word>& words) {
  Nfa out(num_symbols);
  StateId root = out.AddState();
  out.SetInitial(root);
  // Simple trie.
  for (const Word& word : words) {
    StateId at = root;
    for (Symbol a : word) {
      StateId next = -1;
      for (const Nfa::Arc& arc : out.ArcsFrom(at)) {
        if (arc.first == a) {
          next = arc.second;
          break;
        }
      }
      if (next < 0) {
        next = out.AddState();
        out.AddTransition(at, a, next);
      }
      at = next;
    }
    out.SetAccepting(at);
  }
  return out;
}

Nfa UniverseNfa(int num_symbols) {
  Nfa out(num_symbols);
  StateId s = out.AddState();
  out.SetInitial(s);
  out.SetAccepting(s);
  for (Symbol a = 0; a < num_symbols; ++a) out.AddTransition(s, a, s);
  return out;
}

Nfa EmptyNfa(int num_symbols) {
  Nfa out(num_symbols);
  StateId s = out.AddState();
  out.SetInitial(s);
  return out;
}

}  // namespace ecrpq
