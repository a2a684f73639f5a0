// Convolution encoding and the regular-relation algebra (Section 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "automata/operations.h"
#include "reference_ops.h"
#include "relations/builtin.h"
#include "relations/relation.h"
#include "relations/tuple_regex.h"
#include "util/random.h"

namespace ecrpq {
namespace {

Word W(std::initializer_list<int> symbols) {
  Word w;
  for (int s : symbols) w.push_back(s);
  return w;
}

TEST(Convolution, EncodeDecodeRoundTrip) {
  TupleAlphabet ta(2, 2);
  EXPECT_EQ(ta.num_symbols(), 9);
  TupleLetter letter = {0, kPad};
  Symbol id = ta.Encode(letter);
  EXPECT_EQ(ta.Decode(id), letter);
  EXPECT_EQ(ta.Component(id, 0), 0);
  EXPECT_EQ(ta.Component(id, 1), kPad);
  EXPECT_EQ(ta.PadMask(id), 2u);
}

TEST(Convolution, PaperExample) {
  // s1 = aba, s2 = babb => [(s1,s2)] = (a,b)(b,a)(a,b)(⊥,b).
  TupleAlphabet ta(2, 2);
  Symbol a = 0, b = 1;
  Word conv = Convolve(ta, {W({a, b, a}), W({b, a, b, b})});
  ASSERT_EQ(conv.size(), 4u);
  EXPECT_EQ(ta.Decode(conv[0]), TupleLetter({a, b}));
  EXPECT_EQ(ta.Decode(conv[3]), TupleLetter({kPad, b}));
  auto back = Deconvolve(ta, conv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[0], W({a, b, a}));
  EXPECT_EQ(back.value()[1], W({b, a, b, b}));
}

TEST(Convolution, InvalidWords) {
  TupleAlphabet ta(2, 2);
  Word pad_then_letter = {ta.Encode({kPad, 0}), ta.Encode({0, 0})};
  EXPECT_FALSE(IsValidConvolution(ta, pad_then_letter));
  Word with_all_pad = {ta.Encode({0, 0}), ta.AllPadId()};
  EXPECT_FALSE(IsValidConvolution(ta, with_all_pad));
  Word fine = {ta.Encode({0, 0}), ta.Encode({kPad, 0})};
  EXPECT_TRUE(IsValidConvolution(ta, fine));
}

TEST(RegularRelation, ValidityEnforced) {
  // An NFA accepting an invalid word gets sanitized by the constructor.
  TupleAlphabet ta(2, 2);
  Nfa nfa(ta.num_symbols());
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  StateId s2 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.SetAccepting(s2);
  nfa.AddTransition(s0, ta.Encode({kPad, 0}), s1);
  nfa.AddTransition(s1, ta.Encode({0, 0}), s2);  // letter after pad: invalid
  RegularRelation rel(2, 2, std::move(nfa));
  EXPECT_TRUE(rel.IsEmpty());
}

TEST(RegularRelation, MembershipAndEnumeration) {
  RegularRelation prefix = PrefixRelation(2);
  EXPECT_TRUE(prefix.Contains({W({}), W({})}));
  EXPECT_TRUE(prefix.Contains({W({}), W({0})}));
  EXPECT_TRUE(prefix.Contains({W({0, 1}), W({0, 1, 1})}));
  EXPECT_FALSE(prefix.Contains({W({1}), W({0, 1})}));
  EXPECT_FALSE(prefix.Contains({W({0, 0}), W({0})}));
  EXPECT_FALSE(prefix.IsEmpty());
  EXPECT_TRUE(prefix.IsInfinite());
  auto member = prefix.AnyMember();
  ASSERT_TRUE(member.has_value());
  EXPECT_TRUE(prefix.Contains(*member));
  auto members = prefix.EnumerateMembers(10, 2);
  EXPECT_EQ(members.size(), 10u);
  for (const auto& m : members) EXPECT_TRUE(prefix.Contains(m));
}

TEST(RelationAlgebra, IntersectUnionComplement) {
  RegularRelation eq = EqualityRelation(2);
  RegularRelation el = EqualLengthRelation(2);
  // eq ⊆ el, so eq ∩ el = eq and eq ∪ el = el.
  auto inter = RegularRelation::Intersect(eq, el);
  ASSERT_TRUE(inter.ok());
  EXPECT_TRUE(inter.value().Contains({W({0, 1}), W({0, 1})}));
  EXPECT_FALSE(inter.value().Contains({W({0, 1}), W({1, 1})}));

  auto uni = RegularRelation::Union(eq, el);
  ASSERT_TRUE(uni.ok());
  EXPECT_TRUE(uni.value().Contains({W({0, 1}), W({1, 1})}));
  EXPECT_FALSE(uni.value().Contains({W({0}), W({0, 0})}));

  // Complement of el within valid convolutions: different lengths.
  RegularRelation not_el = el.Complement();
  EXPECT_TRUE(not_el.Contains({W({0}), W({0, 0})}));
  EXPECT_FALSE(not_el.Contains({W({0}), W({1})}));
}

TEST(RelationAlgebra, ArityMismatchRejected) {
  RegularRelation eq = EqualityRelation(2);
  RegularRelation eq3 = AllEqualRelation(2, 3);
  EXPECT_FALSE(RegularRelation::Intersect(eq, eq3).ok());
  RegularRelation eq_other = EqualityRelation(3);
  EXPECT_FALSE(RegularRelation::Union(eq, eq_other).ok());
}

TEST(RelationAlgebra, PermuteTapes) {
  RegularRelation shorter = ShorterRelation(2);
  auto longer = shorter.PermuteTapes({1, 0});
  ASSERT_TRUE(longer.ok());
  EXPECT_TRUE(longer.value().Contains({W({0, 0}), W({0})}));
  EXPECT_FALSE(longer.value().Contains({W({0}), W({0, 0})}));
  EXPECT_FALSE(shorter.PermuteTapes({0, 0}).ok());
  EXPECT_FALSE(shorter.PermuteTapes({0}).ok());
}

TEST(RelationAlgebra, CylindrifyIgnoresOtherTapes) {
  RegularRelation eq = EqualityRelation(2);
  auto lifted = eq.Cylindrify(3, {0, 2});
  ASSERT_TRUE(lifted.ok());
  // Tapes 0 and 2 equal; tape 1 arbitrary (longer or shorter).
  EXPECT_TRUE(lifted.value().Contains({W({0, 1}), W({}), W({0, 1})}));
  EXPECT_TRUE(lifted.value().Contains(
      {W({0, 1}), W({1, 1, 1, 1, 1}), W({0, 1})}));
  EXPECT_FALSE(lifted.value().Contains({W({0, 1}), W({}), W({0, 0})}));
}

// The reference Cylindrify: for every output letter, scan every state and
// arc of the relation for the letter's own-tape projection.
RegularRelation ReferenceCylindrify(const RegularRelation& rel, int new_arity,
                                    const std::vector<int>& positions) {
  const Nfa base = RemoveEpsilons(rel.nfa());
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
  for (Symbol letter = 0; letter < out_ta.num_symbols(); ++letter) {
    TupleLetter full = out_ta.Decode(letter);
    TupleLetter own(rel.arity());
    bool own_all_pad = true;
    for (int t = 0; t < rel.arity(); ++t) {
      own[t] = full[positions[t]];
      if (own[t] != kPad) own_all_pad = false;
    }
    if (own_all_pad) {
      out.AddTransition(done, letter, done);
      continue;
    }
    Symbol own_id = own_ta.Encode(own);
    for (StateId s = 0; s < base.num_states(); ++s) {
      for (const Nfa::Arc& arc : base.ArcsFrom(s)) {
        if (arc.first == own_id) out.AddTransition(s, letter, arc.second);
      }
    }
  }
  return RegularRelation(rel.base_size(), new_arity, std::move(out),
                         /*trusted_valid=*/false);
}

// A random relation: a random NFA (ε-arcs, several initial states) over the
// tuple alphabet, made valid by the untrusted constructor.
RegularRelation RandomRelation(Rng* rng, int base_size, int arity) {
  TupleAlphabet ta(base_size, arity);
  Nfa nfa(ta.num_symbols());
  const int states = 1 + static_cast<int>(rng->Below(6));
  nfa.AddStates(states);
  for (StateId s = 0; s < states; ++s) {
    nfa.SetInitial(s, rng->Chance(0.4));
    nfa.SetAccepting(s, rng->Chance(0.4));
    const int arcs = static_cast<int>(rng->Below(ta.num_symbols() + 2));
    for (int i = 0; i < arcs; ++i) {
      Symbol symbol = rng->Chance(0.1)
                          ? kEpsilon
                          : static_cast<Symbol>(rng->Below(ta.num_symbols()));
      nfa.AddTransition(s, symbol, static_cast<StateId>(rng->Below(states)));
    }
  }
  return RegularRelation(base_size, arity, std::move(nfa));
}

TEST(RelationAlgebra, CylindrifyMatchesPerLetterScan) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    const int base = 2 + static_cast<int>(rng.Below(2));
    const int arity = 1 + static_cast<int>(rng.Below(2));
    const int new_arity = arity + 1 + static_cast<int>(rng.Below(2));
    // `arity` distinct positions in [0, new_arity), in random order.
    std::vector<int> positions;
    while (static_cast<int>(positions.size()) < arity) {
      int pos = static_cast<int>(rng.Below(new_arity));
      if (std::find(positions.begin(), positions.end(), pos) ==
          positions.end()) {
        positions.push_back(pos);
      }
    }
    RegularRelation rel = RandomRelation(&rng, base, arity);
    auto lifted = rel.Cylindrify(new_arity, positions);
    ASSERT_TRUE(lifted.ok());
    EXPECT_EQ(Dump(lifted.value().nfa()),
              Dump(ReferenceCylindrify(rel, new_arity, positions).nfa()))
        << "round " << round;
  }
  // The builtins the edit-distance composition lifts.
  for (const RegularRelation& rel :
       {OneEditOrEqualRelation(3), PrefixRelation(2), EqualityRelation(3)}) {
    for (const std::vector<int>& positions :
         std::vector<std::vector<int>>{{0, 1}, {1, 2}, {2, 0}}) {
      auto lifted = rel.Cylindrify(3, positions);
      ASSERT_TRUE(lifted.ok());
      EXPECT_EQ(Dump(lifted.value().nfa()),
                Dump(ReferenceCylindrify(rel, 3, positions).nfa()));
    }
  }
}

// A random NFA over the tuple alphabet wrapped as-is (trusted): it keeps
// its ε-arcs, several or no initial states, and any letter, the all-⊥
// one included.
RegularRelation RawRandomRelation(Rng* rng, int base_size, int arity) {
  TupleAlphabet ta(base_size, arity);
  Nfa nfa(ta.num_symbols());
  const int states = 1 + static_cast<int>(rng->Below(7));
  nfa.AddStates(states);
  for (StateId s = 0; s < states; ++s) {
    nfa.SetInitial(s, rng->Chance(0.4));
    nfa.SetAccepting(s, rng->Chance(0.4));
    const int arcs = static_cast<int>(rng->Below(2 * ta.num_symbols() + 2));
    for (int i = 0; i < arcs; ++i) {
      Symbol symbol = rng->Chance(0.15)
                          ? kEpsilon
                          : static_cast<Symbol>(rng->Below(ta.num_symbols()));
      nfa.AddTransition(s, symbol, static_cast<StateId>(rng->Below(states)));
    }
  }
  return RegularRelation(base_size, arity, std::move(nfa),
                         /*trusted_valid=*/true);
}

// `count` distinct tapes of [0, arity) in random order.
std::vector<int> RandomTapes(Rng* rng, int arity, int count) {
  std::vector<int> tapes;
  while (static_cast<int>(tapes.size()) < count) {
    int t = static_cast<int>(rng->Below(arity));
    if (std::find(tapes.begin(), tapes.end(), t) == tapes.end()) {
      tapes.push_back(t);
    }
  }
  return tapes;
}

// Project, PermuteTapes and Cylindrify relabel through per-letter tables
// and read ε-free automata in place; their automata must be byte-identical
// to the per-arc decoding references, for arity 1-3.
TEST(RelationAlgebra, RelabelledOperationsMatchReference) {
  Rng rng(5151);
  for (int round = 0; round < 60; ++round) {
    const int base = 1 + static_cast<int>(rng.Below(3));
    const int arity = 1 + static_cast<int>(rng.Below(3));
    const RegularRelation rel = round % 2 == 0
                                    ? RawRandomRelation(&rng, base, arity)
                                    : RandomRelation(&rng, base, arity);
    const std::vector<int> kept =
        RandomTapes(&rng, arity, 1 + static_cast<int>(rng.Below(arity)));
    auto projected = rel.Project(kept);
    ASSERT_TRUE(projected.ok());
    EXPECT_EQ(Dump(projected.value().nfa()),
              Dump(reference::Project(rel, kept).nfa()))
        << "round " << round;
    const std::vector<int> perm = RandomTapes(&rng, arity, arity);
    auto permuted = rel.PermuteTapes(perm);
    ASSERT_TRUE(permuted.ok());
    EXPECT_EQ(Dump(permuted.value().nfa()),
              Dump(reference::PermuteTapes(rel, perm).nfa()))
        << "round " << round;
    if (arity < 3) {
      const int new_arity = arity + 1;
      const std::vector<int> positions = RandomTapes(&rng, new_arity, arity);
      auto lifted = rel.Cylindrify(new_arity, positions);
      ASSERT_TRUE(lifted.ok());
      EXPECT_EQ(Dump(lifted.value().nfa()),
                Dump(reference::Cylindrify(rel, new_arity, positions).nfa()))
          << "round " << round;
    }
  }
}

// The builtin catalogue, built by the library and by the reference
// pipeline (reference_ops.h), state for state and arc for arc; the
// complements run through the valid-convolution product and Trim. The
// complements of edit3 at bases 3 and 5 and of edit2 at base 16 are left
// out: determinizing them takes seconds to minutes.
TEST(RelationAlgebra, BuiltinCatalogueMatchesReferencePipeline) {
  for (int base : {2, 3, 5}) {
    for (const RegularRelation& rel :
         {EqualityRelation(base), EqualLengthRelation(base),
          PrefixRelation(base), HammingDistanceAtMostRelation(base, 1),
          HammingDistanceAtMostRelation(base, 2)}) {
      EXPECT_EQ(Dump(rel.Complement().nfa()),
                Dump(reference::Complement(rel).nfa()))
          << rel.Describe();
    }
    for (int k = 1; k <= 3; ++k) {
      const RegularRelation rel = EditDistanceAtMostRelation(base, k);
      EXPECT_EQ(Dump(rel.nfa()),
                Dump(reference::EditDistanceAtMost(base, k).nfa()))
          << "edit" << k << " base " << base;
      if (k < 3 || base == 2) {
        EXPECT_EQ(Dump(rel.Complement().nfa()),
                  Dump(reference::Complement(rel).nfa()))
            << "complement of edit" << k << " base " << base;
      }
    }
  }
  const RegularRelation edit1 = EditDistanceAtMostRelation(16, 1);
  EXPECT_EQ(Dump(edit1.nfa()),
            Dump(reference::EditDistanceAtMost(16, 1).nfa()));
  EXPECT_EQ(Dump(edit1.Complement().nfa()),
            Dump(reference::Complement(edit1).nfa()));
  const RegularRelation edit2 = EditDistanceAtMostRelation(16, 2);
  EXPECT_EQ(edit2.nfa().num_states(), 715);
  EXPECT_EQ(edit2.nfa().num_transitions(), 89888);
  EXPECT_EQ(Dump(edit2.nfa()),
            Dump(reference::EditDistanceAtMost(16, 2).nfa()));
}

TEST(RelationAlgebra, ProjectDropsTapes) {
  // Project prefix(x, y) to y: all strings (any y has prefix ε).
  RegularRelation prefix = PrefixRelation(2);
  auto proj = prefix.Project({1});
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(proj.value().Contains({W({0, 1, 1})}));
  EXPECT_TRUE(proj.value().Contains({W({})}));
  // Project strict-prefix(x, y) to x: x must extend to a longer y, always
  // possible, so again everything.
  auto proj2 = StrictPrefixRelation(2).Project({0});
  ASSERT_TRUE(proj2.ok());
  EXPECT_TRUE(proj2.value().Contains({W({1, 1})}));
}

TEST(RelationAlgebra, JoinSharesTape) {
  // join of shorter(x, y) and shorter(y, z) on y: |x| < |y| < |z|.
  RegularRelation shorter = ShorterRelation(2);
  auto joined = RegularRelation::Join(shorter, 1, shorter, 0);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().arity(), 3);
  EXPECT_TRUE(joined.value().Contains({W({0}), W({0, 0}), W({0, 0, 0})}));
  EXPECT_FALSE(joined.value().Contains({W({0}), W({0, 0}), W({0, 0})}));
}

TEST(RelationAlgebra, ComposeShorter) {
  // shorter ∘ shorter = "shorter by at least 2".
  RegularRelation shorter = ShorterRelation(2);
  auto composed = RegularRelation::Compose(shorter, shorter);
  ASSERT_TRUE(composed.ok());
  EXPECT_TRUE(composed.value().Contains({W({0}), W({0, 0, 0})}));
  EXPECT_FALSE(composed.value().Contains({W({0}), W({0, 0})}));
}

TEST(RelationAlgebra, LengthAbstraction) {
  // Morphism a->b is length-preserving; its abstraction is equal-length.
  RegularRelation morph = MorphismRelation(2, {1, 0});
  RegularRelation abstracted = morph.LengthAbstraction();
  EXPECT_TRUE(abstracted.Contains({W({0, 0}), W({0, 1})}));
  EXPECT_FALSE(abstracted.Contains({W({0}), W({0, 1})}));
}

TEST(RelationAlgebra, UnaryLanguageRoundTrip) {
  Nfa lang(2);
  StateId s0 = lang.AddState();
  StateId s1 = lang.AddState();
  lang.SetInitial(s0);
  lang.SetAccepting(s1);
  lang.AddTransition(s0, 0, s1);
  RegularRelation rel = RegularRelation::FromLanguage(2, lang);
  EXPECT_TRUE(rel.Contains({W({0})}));
  EXPECT_FALSE(rel.Contains({W({1})}));
  auto back = rel.ToLanguageNfa();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().Accepts(W({0})));
  EXPECT_FALSE(back.value().Accepts(W({1})));
}

TEST(TupleRegex, PrefixByHand) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  auto rel = ParseTupleRegex("([a,a]|[b,b])*([_,a]|[_,b])*", *alphabet);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  RegularRelation prefix = PrefixRelation(2);
  // Hand-built prefix relation equals the builtin on samples.
  for (const auto& m : prefix.EnumerateMembers(30, 3)) {
    EXPECT_TRUE(rel.value().Contains(m));
  }
  EXPECT_FALSE(rel.value().Contains({W({0}), W({1, 1})}));
}

TEST(TupleRegex, Errors) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  EXPECT_FALSE(ParseTupleRegex("[a,a", *alphabet).ok());
  EXPECT_FALSE(ParseTupleRegex("[a,c]*", *alphabet).ok());
  EXPECT_FALSE(ParseTupleRegex("[a,a][b]*", *alphabet).ok());  // arity clash
  EXPECT_FALSE(ParseTupleRegex("[_,_]", *alphabet).ok());      // all-pad
  EXPECT_FALSE(ParseTupleRegex("\\e", *alphabet).ok());        // no arity
  EXPECT_TRUE(ParseTupleRegex("[a,a]*", *alphabet, 2).ok());
  EXPECT_FALSE(ParseTupleRegex("[a,a]*", *alphabet, 3).ok());
}

}  // namespace
}  // namespace ecrpq
