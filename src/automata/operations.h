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
/// contiguous range (a run) in insertion order. Products look up partner
/// arcs here instead of scanning every arc pair; On() finds a run with one
/// probe sequence of a hash table over the runs.
class ArcsBySymbol {
 public:
  /// No states.
  ArcsBySymbol() : offsets_{0}, runs_(2, 0) {}
  explicit ArcsBySymbol(const Nfa& nfa);

  /// All arcs of `state`, sorted by symbol (stable).
  std::span<const Nfa::Arc> From(StateId state) const {
    return {arcs_.data() + offsets_[state],
            arcs_.data() + offsets_[state + 1]};
  }

  /// Arcs of `state` labelled `symbol`, in insertion order.
  std::span<const Nfa::Arc> On(StateId state, Symbol symbol) const {
    const size_t begin = offsets_[state];
    const size_t end = offsets_[state + 1];
    const size_t mask = runs_.size() - 1;
    for (size_t i = Home(state, symbol);; i = (i + 1) & mask) {
      if (runs_[i] == 0) return {};
      const size_t first = runs_[i] - 1;
      if (first >= begin && first < end && arcs_[first].first == symbol) {
        size_t last = first + 1;
        while (last < end && arcs_[last].first == symbol) ++last;
        return {arcs_.data() + first, arcs_.data() + last};
      }
    }
  }

 private:
  size_t Home(StateId state, Symbol symbol) const {
    const uint64_t key = (static_cast<uint64_t>(state) << 32) |
                         static_cast<uint32_t>(symbol);
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Nfa::Arc> arcs_;
  std::vector<size_t> offsets_;  // state s owns [offsets_[s], offsets_[s+1])
  // Open-addressing table (linear probing, at most a quarter full) of
  // the runs: 1 + the index in arcs_ of a run's first arc; 0 = empty.
  std::vector<uint32_t> runs_;
  int shift_ = 63;  // 64 - log2(runs_.size())
};

/// Equivalent NFA without ε-transitions, over the same state ids: state s
/// keeps its initial flag, accepts iff its ε-closure holds an accepting
/// state, and gets the non-ε arcs of its closure's states in ascending
/// state order (each state's arcs in insertion order).
Nfa RemoveEpsilons(const Nfa& nfa);

/// `nfa` itself when it has no ε-arcs; otherwise RemoveEpsilons(nfa),
/// built into `*storage`. Read-only callers use it to skip the copy.
const Nfa& EpsilonFree(const Nfa& nfa, std::optional<Nfa>* storage);

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

/// L(a) ∩ L(b) via the product construction over reachable pairs only
/// (ε-arcs are eliminated first, see RemoveEpsilons). Numbering: the pairs
/// of a's and b's initial states are states 0.. (a's initial states
/// ascending, b's ascending within each), and later pairs are numbered in
/// the order the breadth-first expansion below first reaches them. A
/// state is accepting iff both of its components are. Arc order: state
/// (x, y) gets one arc per pair of an arc of x and an arc of y on the same
/// symbol, ordered by x's arc order and, within one arc of x, by y's arc
/// order; states are expanded in id order. Each state's arcs are found in
/// time linear in the two components' out-degrees plus the output.
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
