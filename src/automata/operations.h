// Language-level operations on Nfa/Dfa.
//
// All functions are pure (inputs are untouched) and preserve the symbol
// universe [0, num_symbols). Binary operations require both operands to share
// num_symbols; callers combine automata only over the same (tuple) alphabet.

#ifndef ECRPQ_AUTOMATA_OPERATIONS_H_
#define ECRPQ_AUTOMATA_OPERATIONS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"

namespace ecrpq {

/// The arcs of an NFA grouped by symbol: per state, a copy of its arcs
/// stably sorted by symbol, so the arcs of one state on one symbol form a
/// contiguous range in insertion order. Products look up partner arcs here
/// instead of scanning every arc pair.
class ArcsBySymbol {
 public:
  explicit ArcsBySymbol(const Nfa& nfa);

  /// All arcs of `state`, sorted by symbol (stable).
  std::span<const Nfa::Arc> From(StateId state) const {
    return {arcs_.data() + offsets_[state],
            arcs_.data() + offsets_[state + 1]};
  }

  /// Arcs of `state` labelled `symbol`, in insertion order.
  std::span<const Nfa::Arc> On(StateId state, Symbol symbol) const;

 private:
  std::vector<Nfa::Arc> arcs_;
  std::vector<size_t> offsets_;  // state s owns [offsets_[s], offsets_[s+1])
};

/// Equivalent NFA without ε-transitions.
Nfa RemoveEpsilons(const Nfa& nfa);

/// Restriction to states both reachable from an initial state and
/// co-reachable from an accepting state. Preserves the language. The result
/// has no states at all when the language is empty.
Nfa Trim(const Nfa& nfa);

/// Automaton for the reversed language.
Nfa Reverse(const Nfa& nfa);

/// L(a) ∪ L(b).
Nfa UnionNfa(const Nfa& a, const Nfa& b);

/// L(a) · L(b).
Nfa ConcatNfa(const Nfa& a, const Nfa& b);

/// L(a)*.
Nfa StarNfa(const Nfa& a);

/// L(a)⁺.
Nfa PlusNfa(const Nfa& a);

/// L(a) ∪ {ε}.
Nfa OptionalNfa(const Nfa& a);

/// L(a) ∩ L(b) via the product construction (ε-arcs are eliminated first).
Nfa IntersectNfa(const Nfa& a, const Nfa& b);

/// Subset construction. The result is complete (includes a dead state when
/// needed) and accepts exactly L(nfa).
Dfa Determinize(const Nfa& nfa);

/// Hopcroft-style minimization (implemented as Moore partition refinement,
/// which is simpler and adequate at our sizes). Result is complete & minimal.
Dfa Minimize(const Dfa& dfa);

/// Automaton for the complement language (over the full symbol universe).
Nfa ComplementNfa(const Nfa& nfa);

/// True iff L(nfa) = ∅.
bool IsEmpty(const Nfa& nfa);

/// True iff L(nfa) is infinite (a useful cycle exists in the trimmed NFA).
bool IsInfinite(const Nfa& nfa);

/// True iff L(a) ⊆ L(b). Searches a × (subsets of b) on the fly and stops
/// at the first reachable pair where `a` accepts and the b-subset does not;
/// b is never determinized or complemented as a whole.
bool IsSubsetOf(const Nfa& a, const Nfa& b);

/// True iff L(a) = L(b).
bool AreEquivalent(const Nfa& a, const Nfa& b);

/// A shortest accepted word, or nullopt when the language is empty.
std::optional<Word> ShortestWord(const Nfa& nfa);

/// Up to `max_count` accepted words of length <= max_len, in length-then-
/// lexicographic order. Deterministic and duplicate-free.
std::vector<Word> EnumerateWords(const Nfa& nfa, int max_count, int max_len);

/// Number of *distinct* accepted words of length exactly `len`, saturating
/// at UINT64_MAX. (Counts words, not runs: the NFA is determinized up to the
/// needed depth via on-the-fly subset construction.)
uint64_t CountWordsOfLength(const Nfa& nfa, int len);

/// Number of distinct accepted words of length <= len, saturating.
uint64_t CountWordsUpTo(const Nfa& nfa, int len);

/// NFA accepting exactly the given finite set of words.
Nfa FromWords(int num_symbols, const std::vector<Word>& words);

/// NFA accepting all words over the universe (Σ*).
Nfa UniverseNfa(int num_symbols);

/// NFA accepting nothing.
Nfa EmptyNfa(int num_symbols);

}  // namespace ecrpq

#endif  // ECRPQ_AUTOMATA_OPERATIONS_H_
