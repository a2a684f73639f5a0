#include "relations/transducer.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "automata/operations.h"

namespace ecrpq {

StateId Transducer::AddState() { return num_states_++; }

void Transducer::AddRule(StateId from, Word input, Word output, StateId to) {
  ECRPQ_DCHECK(from >= 0 && from < num_states_);
  ECRPQ_DCHECK(to >= 0 && to < num_states_);
  rules_.push_back({from, std::move(input), std::move(output), to});
}

Nfa Transducer::Apply(const Nfa& input_in) const {
  const Nfa input = RemoveEpsilons(input_in);
  const ArcsBySymbol input_arcs(input);
  // Product states (transducer state, input-NFA state). A rule
  // (q, u, v, q') yields transitions that consume u through the input NFA
  // and emit v into the output NFA, using intermediate chain states.
  Nfa out(base_size_);
  std::map<std::pair<StateId, StateId>, StateId> ids;
  std::queue<std::pair<StateId, StateId>> work;
  auto get = [&](StateId t, StateId n) {
    auto [it, inserted] = ids.emplace(std::make_pair(t, n), 0);
    if (inserted) {
      it->second = out.AddState();
      work.emplace(t, n);
    }
    return it->second;
  };
  for (StateId t : initial_) {
    for (StateId n : input.InitialStates()) {
      out.SetInitial(get(t, n));
    }
  }
  std::set<StateId> accepting_set(accepting_.begin(), accepting_.end());
  while (!work.empty()) {
    auto [t, n] = work.front();
    work.pop();
    StateId from = ids[{t, n}];
    if (accepting_set.count(t) && input.IsAccepting(n)) {
      out.SetAccepting(from);
    }
    for (const Rule& rule : rules_) {
      if (rule.from != t) continue;
      // All input-NFA states reachable from n by reading rule.input.
      std::vector<StateId> current = {n};
      for (Symbol a : rule.input) {
        std::vector<StateId> next;
        for (StateId s : current) {
          for (const Nfa::Arc& arc : input_arcs.On(s, a)) {
            next.push_back(arc.second);
          }
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        current = std::move(next);
        if (current.empty()) break;
      }
      for (StateId n2 : current) {
        StateId target = get(rule.to, n2);
        // Emit rule.output through chain states.
        if (rule.output.empty()) {
          out.AddTransition(from, kEpsilon, target);
        } else {
          StateId at = from;
          for (size_t i = 0; i < rule.output.size(); ++i) {
            StateId next_state = (i + 1 == rule.output.size())
                                     ? target
                                     : out.AddState();
            out.AddTransition(at, rule.output[i], next_state);
            at = next_state;
          }
        }
      }
    }
  }
  return out;
}

bool Transducer::Contains(const Word& x, const Word& y) const {
  // BFS over (state, i, j): consumed x[0..i) and produced y[0..j).
  std::set<std::tuple<StateId, size_t, size_t>> seen;
  std::queue<std::tuple<StateId, size_t, size_t>> work;
  for (StateId s : initial_) {
    if (seen.insert({s, 0, 0}).second) work.push({s, 0, 0});
  }
  std::set<StateId> accepting_set(accepting_.begin(), accepting_.end());
  while (!work.empty()) {
    auto [s, i, j] = work.front();
    work.pop();
    if (i == x.size() && j == y.size() && accepting_set.count(s)) return true;
    for (const Rule& rule : rules_) {
      if (rule.from != s) continue;
      if (i + rule.input.size() > x.size()) continue;
      if (j + rule.output.size() > y.size()) continue;
      bool match = true;
      for (size_t k = 0; k < rule.input.size() && match; ++k) {
        match = (x[i + k] == rule.input[k]);
      }
      for (size_t k = 0; k < rule.output.size() && match; ++k) {
        match = (y[j + k] == rule.output[k]);
      }
      if (!match) continue;
      auto key = std::make_tuple(rule.to, i + rule.input.size(),
                                 j + rule.output.size());
      if (seen.insert(key).second) work.push(key);
    }
  }
  return false;
}

bool Transducer::IsLetterToLetter() const {
  for (const Rule& rule : rules_) {
    if (rule.input.size() != 1 || rule.output.size() != 1) return false;
  }
  return true;
}

Result<RegularRelation> Transducer::ToRegularRelation() const {
  if (!IsLetterToLetter()) {
    return Status::InvalidArgument(
        "transducer is not letter-to-letter; its relation may not be "
        "regular");
  }
  TupleAlphabet ta(base_size_, 2);
  Nfa nfa(ta.num_symbols());
  nfa.AddStates(num_states_);
  for (StateId s : initial_) nfa.SetInitial(s);
  for (StateId s : accepting_) nfa.SetAccepting(s);
  for (const Rule& rule : rules_) {
    nfa.AddTransition(rule.from, ta.Encode({rule.input[0], rule.output[0]}),
                      rule.to);
  }
  return RegularRelation(base_size_, 2, std::move(nfa),
                         /*trusted_valid=*/true);
}

Transducer RestrictionTransducer(int alphabet_size,
                                 const std::vector<bool>& keep) {
  ECRPQ_DCHECK(static_cast<int>(keep.size()) == alphabet_size);
  // Reads a word w2 and outputs its restriction w1 to the kept letters; as
  // a relation this is { (w1, w2) : w1 = restriction of w2 } with roles
  // (output, input) matching the proof of Proposition 8.4.
  Transducer t(alphabet_size);
  StateId s = t.AddState();
  t.SetInitial(s);
  t.SetAccepting(s);
  for (Symbol a = 0; a < alphabet_size; ++a) {
    if (keep[a]) {
      t.AddRule(s, {a}, {a}, s);
    } else {
      t.AddRule(s, {a}, {}, s);
    }
  }
  return t;
}

bool SolvePcpBounded(const PcpInstance& instance, int max_tiles) {
  ECRPQ_DCHECK(instance.a.size() == instance.b.size());
  // BFS over the "overhang": the unmatched suffix of one side. State:
  // (which side is ahead, overhang word). Bounded by tile count.
  struct State {
    int depth;
    bool a_ahead;
    Word overhang;
  };
  std::set<std::pair<bool, Word>> seen;
  std::queue<State> work;
  work.push({0, true, {}});
  seen.insert({true, {}});
  while (!work.empty()) {
    State st = work.front();
    work.pop();
    if (st.depth >= max_tiles) continue;
    for (size_t i = 0; i < instance.a.size(); ++i) {
      // Current words: if a_ahead, a-side = overhang ++ (new a), b-side =
      // (new b); one must be a prefix of the other.
      Word a_side = st.a_ahead ? st.overhang : Word{};
      Word b_side = st.a_ahead ? Word{} : st.overhang;
      a_side.insert(a_side.end(), instance.a[i].begin(), instance.a[i].end());
      b_side.insert(b_side.end(), instance.b[i].begin(), instance.b[i].end());
      size_t common = std::min(a_side.size(), b_side.size());
      bool prefix = std::equal(a_side.begin(), a_side.begin() + common,
                               b_side.begin());
      if (!prefix) continue;
      // Both sides fully matched after >= 1 tile: a PCP solution.
      if (a_side.size() == b_side.size()) return true;
      bool a_ahead = a_side.size() > b_side.size();
      const Word& longer = a_ahead ? a_side : b_side;
      Word overhang(longer.begin() + common, longer.end());
      auto key = std::make_pair(a_ahead, overhang);
      if (seen.insert(key).second) {
        work.push({st.depth + 1, a_ahead, std::move(overhang)});
      }
    }
  }
  return false;
}

}  // namespace ecrpq
