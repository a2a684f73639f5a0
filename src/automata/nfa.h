// Nondeterministic finite automata over dense symbol ids.
//
// The NFA is the workhorse of the library: regular languages (unary
// relations), regular relations (NFAs over tuple alphabets), graphs viewed as
// automata, and the answer automata of Proposition 5.2 are all Nfa instances.
// Symbols are plain ints in [0, num_symbols); the special kEpsilon id labels
// ε-transitions. Multiple initial states are allowed (graphs-as-automata need
// them).

#ifndef ECRPQ_AUTOMATA_NFA_H_
#define ECRPQ_AUTOMATA_NFA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "util/status.h"

namespace ecrpq {

/// Dense automaton state id.
using StateId = int32_t;

/// Symbol id labelling ε-transitions. Never a valid alphabet symbol.
constexpr Symbol kEpsilon = -1;

/// A nondeterministic finite automaton with ε-transitions and multiple
/// initial states.
class Nfa {
 public:
  /// An outgoing transition: (symbol, target state).
  using Arc = std::pair<Symbol, StateId>;

  /// Creates an NFA over symbols [0, num_symbols). num_symbols >= 0.
  explicit Nfa(int num_symbols);

  /// Adds a fresh state and returns its id.
  StateId AddState();

  /// Adds `count` fresh states; returns the id of the first.
  StateId AddStates(int count);

  /// Adds a transition. `symbol` must be kEpsilon or in [0, num_symbols).
  void AddTransition(StateId from, Symbol symbol, StateId to);

  /// Reserves room for `count` arcs out of `state`, so a builder that
  /// knows a state's out-degree sizes its arc list once.
  void ReserveArcs(StateId state, size_t count) {
    arcs_[state].reserve(count);
  }

  void SetInitial(StateId state, bool initial = true);
  void SetAccepting(StateId state, bool accepting = true);

  int num_states() const { return static_cast<int>(arcs_.size()); }
  int num_symbols() const { return num_symbols_; }
  int num_transitions() const { return num_transitions_; }

  bool IsInitial(StateId state) const { return initial_[state]; }
  bool IsAccepting(StateId state) const { return accepting_[state]; }

  /// All initial / accepting state ids, ascending.
  std::vector<StateId> InitialStates() const;
  std::vector<StateId> AcceptingStates() const;

  /// Outgoing arcs of `state` in insertion order (includes ε-arcs).
  const std::vector<Arc>& ArcsFrom(StateId state) const {
    return arcs_[state];
  }

  bool HasEpsilonArcs() const { return num_epsilon_arcs_ > 0; }

  /// ε-closure of a set of states (sorted, deduplicated).
  std::vector<StateId> EpsilonClosure(std::vector<StateId> states) const;

  /// Subset simulation: does this NFA accept `word`?
  bool Accepts(const Word& word) const;

  /// True if some state is both initial and accepting (after ε-closure),
  /// i.e. the empty word is accepted.
  bool AcceptsEmptyWord() const;

 private:
  int num_symbols_;
  int num_transitions_ = 0;
  int num_epsilon_arcs_ = 0;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<bool> initial_;
  std::vector<bool> accepting_;
};

}  // namespace ecrpq

#endif  // ECRPQ_AUTOMATA_NFA_H_
