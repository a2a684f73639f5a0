// The catalogue of regular relations the paper uses as running examples
// (Sections 1, 3 and 4): path equality, length comparisons, prefix,
// bounded edit distance, synchronous transformations (morphisms),
// ρ-isomorphism, and finite relations.
//
// Each builder returns a RegularRelation over a base alphabet of the given
// size; callers share Symbol ids with their GraphDb's Alphabet.

#ifndef ECRPQ_RELATIONS_BUILTIN_H_
#define ECRPQ_RELATIONS_BUILTIN_H_

#include <map>
#include <vector>

#include "relations/relation.h"

namespace ecrpq {

/// π1 = π2 (string equality).
RegularRelation EqualityRelation(int base_size);

/// el(π1, π2): |π1| = |π2|.
RegularRelation EqualLengthRelation(int base_size);

/// |π1| < |π2|.
RegularRelation ShorterRelation(int base_size);

/// |π1| <= |π2|.
RegularRelation ShorterOrEqualRelation(int base_size);

/// π1 ⪯ π2 (π1 is a prefix of π2).
RegularRelation PrefixRelation(int base_size);

/// Strict prefix: π1 ⪯ π2 and π1 ≠ π2.
RegularRelation StrictPrefixRelation(int base_size);

/// Synchronous transformation by h: (a1...an, h(a1)...h(an)).
/// `mapping[a]` is h(a); entries must be valid base symbols.
RegularRelation MorphismRelation(int base_size,
                                 const std::vector<Symbol>& mapping);

/// Position-wise allowed pairs: { (u, v) : |u|=|v|, (u_i, v_i) ∈ pairs }.
/// The ρ-isomorphism relation of Section 4 is this with
/// pairs = { (a,b) : a ≺ b or b ≺ a }.
RegularRelation SynchronousPairsRelation(
    int base_size, const std::vector<std::pair<Symbol, Symbol>>& pairs);

/// ρ-isomorphism from declared subproperty pairs a ≺ b (symmetrized).
RegularRelation RhoIsomorphismRelation(
    int base_size, const std::vector<std::pair<Symbol, Symbol>>& subproperty);

/// Single edit step or equality: pairs (x, y) with edit distance <= 1
/// (substitution, deletion or insertion of one symbol). Letter-to-letter
/// construction with one-symbol lookback (Section 4's D≤k builds on this).
RegularRelation OneEditOrEqualRelation(int base_size);

/// D≤k: pairs with edit distance at most k, built by composing
/// OneEditOrEqualRelation k times (regular because bounded-delay, cf.
/// Frougny & Sakarovitch). k >= 0; k = 0 is equality. Each composition
/// joins over the (|Σ|+1)³-letter tuple alphabet, so size and compile
/// cost grow fast: at |Σ| = 16, D≤1 has 35 states / 1,360 transitions and
/// D≤2 has 715 states / 89,888 transitions, built in about 15 ms on a
/// shared 4-vCPU Xeon VM (about 7 ms of it the 988-state, 107,360-arc
/// join product and 6 ms the projection with its ε-removal).
RegularRelation EditDistanceAtMostRelation(int base_size, int k);

/// Hamming distance <= k: equal length and at most k position-wise
/// mismatches (the substitution-only special case of edit distance; a
/// (k+1)-state letter-to-letter automaton).
RegularRelation HammingDistanceAtMostRelation(int base_size, int k);

/// A finite n-ary relation given explicitly.
RegularRelation FiniteRelation(int base_size, int arity,
                               const std::vector<std::vector<Word>>& tuples);

/// The full relation (Σ*)ⁿ.
RegularRelation UniversalRelation(int base_size, int arity);

/// {(s1,...,sn)} with all components equal: generalized equality.
RegularRelation AllEqualRelation(int base_size, int arity);

/// All components have equal length (n-ary el).
RegularRelation AllEqualLengthRelation(int base_size, int arity);

/// Reference edit distance (dynamic programming) for tests.
int EditDistance(const Word& a, const Word& b);

}  // namespace ecrpq

#endif  // ECRPQ_RELATIONS_BUILTIN_H_
