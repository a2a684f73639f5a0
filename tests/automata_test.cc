// NFA/DFA construction and language operations.

#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <unordered_map>

#include "automata/operations.h"
#include "automata/regex.h"
#include "reference_ops.h"
#include "util/random.h"

namespace ecrpq {
namespace {

Nfa MakeNfa(std::string_view regex, int num_symbols) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("b");
  alphabet.Intern("c");
  auto parsed = ParseRegexStrict(regex, alphabet);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value()->ToNfa(num_symbols);
}

Word W(std::initializer_list<int> symbols) {
  Word w;
  for (int s : symbols) w.push_back(s);
  return w;
}

TEST(Nfa, AcceptsBasics) {
  Nfa nfa = MakeNfa("ab*", 2);
  EXPECT_TRUE(nfa.Accepts(W({0})));
  EXPECT_TRUE(nfa.Accepts(W({0, 1})));
  EXPECT_TRUE(nfa.Accepts(W({0, 1, 1, 1})));
  EXPECT_FALSE(nfa.Accepts(W({})));
  EXPECT_FALSE(nfa.Accepts(W({1})));
  EXPECT_FALSE(nfa.Accepts(W({0, 0})));
}

TEST(Nfa, EmptyWordHandling) {
  Nfa star = MakeNfa("a*", 2);
  EXPECT_TRUE(star.AcceptsEmptyWord());
  Nfa plus = MakeNfa("a+", 2);
  EXPECT_FALSE(plus.AcceptsEmptyWord());
}

TEST(Operations, UnionIntersection) {
  Nfa a = MakeNfa("a*b", 2);
  Nfa b = MakeNfa("ab*", 2);
  Nfa u = UnionNfa(a, b);
  EXPECT_TRUE(u.Accepts(W({0, 0, 1})));
  EXPECT_TRUE(u.Accepts(W({0, 1, 1})));
  Nfa i = IntersectNfa(a, b);
  EXPECT_TRUE(i.Accepts(W({0, 1})));
  EXPECT_FALSE(i.Accepts(W({0, 0, 1})));
  EXPECT_FALSE(i.Accepts(W({0, 1, 1})));
}

TEST(Operations, ComplementRoundTrip) {
  Nfa a = MakeNfa("(ab)*", 2);
  Nfa c = ComplementNfa(a);
  EXPECT_FALSE(c.Accepts(W({})));
  EXPECT_FALSE(c.Accepts(W({0, 1})));
  EXPECT_TRUE(c.Accepts(W({0})));
  EXPECT_TRUE(c.Accepts(W({1, 0})));
  EXPECT_TRUE(AreEquivalent(a, ComplementNfa(c)));
}

TEST(Operations, InclusionAndEquivalence) {
  Nfa ab_star = MakeNfa("(a|b)*", 2);
  Nfa a_star = MakeNfa("a*", 2);
  EXPECT_TRUE(IsSubsetOf(a_star, ab_star));
  EXPECT_FALSE(IsSubsetOf(ab_star, a_star));
  Nfa aa = MakeNfa("a(aa)*", 2);
  Nfa odd_a = MakeNfa("(aa)*a", 2);
  EXPECT_TRUE(AreEquivalent(aa, odd_a));
}

TEST(Operations, EmptinessAndInfinity) {
  EXPECT_TRUE(IsEmpty(EmptyNfa(2)));
  EXPECT_FALSE(IsEmpty(UniverseNfa(2)));
  EXPECT_TRUE(IsInfinite(MakeNfa("a*", 2)));
  EXPECT_FALSE(IsInfinite(MakeNfa("a|bb", 2)));
  // A cycle that is not co-reachable does not make the language infinite.
  Nfa nfa(2);
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.SetAccepting(s0);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s1, 0, s1);
  EXPECT_FALSE(IsInfinite(nfa));
}

TEST(Operations, ShortestWord) {
  EXPECT_EQ(ShortestWord(MakeNfa("a*", 2)), W({}));
  EXPECT_EQ(ShortestWord(MakeNfa("aab|b", 2)), W({1}));
  EXPECT_EQ(ShortestWord(EmptyNfa(2)), std::nullopt);
  EXPECT_EQ(ShortestWord(MakeNfa("abc", 3)), W({0, 1, 2}));
}

TEST(Operations, EnumerateWordsOrdered) {
  std::vector<Word> words = EnumerateWords(MakeNfa("a*b", 2), 4, 10);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], W({1}));
  EXPECT_EQ(words[1], W({0, 1}));
  EXPECT_EQ(words[2], W({0, 0, 1}));
  EXPECT_EQ(words[3], W({0, 0, 0, 1}));
}

TEST(Operations, CountWordsDistinct) {
  // Ambiguous NFA: two runs for "a"; the distinct count must still be 1.
  Nfa nfa(1);
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  StateId s2 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.SetAccepting(s1);
  nfa.SetAccepting(s2);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s0, 0, s2);
  EXPECT_EQ(CountWordsOfLength(nfa, 1), 1u);
  EXPECT_EQ(CountWordsOfLength(MakeNfa("(a|b)(a|b)", 2), 2), 4u);
  EXPECT_EQ(CountWordsUpTo(MakeNfa("(a|b)*", 2), 3), 1u + 2 + 4 + 8);
}

TEST(Operations, DeterminizeMinimize) {
  Nfa nfa = MakeNfa("(a|b)*abb", 2);
  Dfa dfa = Determinize(nfa);
  EXPECT_TRUE(dfa.Accepts(W({0, 1, 1})));
  EXPECT_FALSE(dfa.Accepts(W({0, 1})));
  Dfa min = Minimize(dfa);
  // The canonical DFA for (a|b)*abb has 4 states.
  EXPECT_EQ(min.num_states(), 4);
  EXPECT_TRUE(AreEquivalent(min.ToNfa(), nfa));
}

TEST(Operations, TrimRemovesDeadStates) {
  Nfa nfa(2);
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  StateId dead = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.SetAccepting(s1);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s0, 1, dead);
  Nfa trimmed = Trim(nfa);
  EXPECT_EQ(trimmed.num_states(), 2);
  EXPECT_TRUE(trimmed.Accepts(W({0})));
}

TEST(Operations, ReverseLanguage) {
  Nfa nfa = MakeNfa("ab", 2);
  Nfa rev = Reverse(nfa);
  EXPECT_TRUE(rev.Accepts(W({1, 0})));
  EXPECT_FALSE(rev.Accepts(W({0, 1})));
}

TEST(Operations, FromWordsTrie) {
  Nfa nfa = FromWords(2, {W({}), W({0, 1}), W({0, 0})});
  EXPECT_TRUE(nfa.Accepts(W({})));
  EXPECT_TRUE(nfa.Accepts(W({0, 1})));
  EXPECT_TRUE(nfa.Accepts(W({0, 0})));
  EXPECT_FALSE(nfa.Accepts(W({0})));
  EXPECT_FALSE(nfa.Accepts(W({1})));
}

// Property sweep: random regexes obey De Morgan's law and determinization
// preserves the language.
class RandomRegexTest : public ::testing::TestWithParam<int> {};

RegexPtr RandomRegex(Rng* rng, int depth) {
  if (depth == 0 || rng->Chance(0.3)) {
    switch (rng->Below(3)) {
      case 0:
        return Regex::Letter(static_cast<Symbol>(rng->Below(2)));
      case 1:
        return Regex::Epsilon();
      default:
        return Regex::Any();
    }
  }
  switch (rng->Below(4)) {
    case 0:
      return Regex::Union(RandomRegex(rng, depth - 1),
                          RandomRegex(rng, depth - 1));
    case 1:
      return Regex::Concat(RandomRegex(rng, depth - 1),
                           RandomRegex(rng, depth - 1));
    case 2:
      return Regex::Star(RandomRegex(rng, depth - 1));
    default:
      return Regex::Optional(RandomRegex(rng, depth - 1));
  }
}

TEST_P(RandomRegexTest, DeMorgan) {
  Rng rng(GetParam());
  Nfa a = RandomRegex(&rng, 3)->ToNfa(2);
  Nfa b = RandomRegex(&rng, 3)->ToNfa(2);
  Nfa lhs = ComplementNfa(UnionNfa(a, b));
  Nfa rhs = IntersectNfa(ComplementNfa(a), ComplementNfa(b));
  EXPECT_TRUE(AreEquivalent(lhs, rhs));
}

TEST_P(RandomRegexTest, DeterminizePreservesLanguage) {
  Rng rng(GetParam() + 1000);
  Nfa nfa = RandomRegex(&rng, 3)->ToNfa(2);
  Dfa dfa = Determinize(nfa);
  Dfa min = Minimize(dfa);
  for (const Word& w : EnumerateWords(UniverseNfa(2), 64, 5)) {
    EXPECT_EQ(nfa.Accepts(w), dfa.Accepts(w));
    EXPECT_EQ(nfa.Accepts(w), min.Accepts(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRegexTest, ::testing::Range(0, 12));

// Differential sweep: the symbol-indexed product and the early-exit
// inclusion check against the constructions they replaced.
class SymbolIndexedProductTest : public ::testing::TestWithParam<int> {};

// Random NFA with ε-arcs, several (or no) initial states, duplicate arcs
// and arcs in no particular symbol order.
Nfa RandomNfa(Rng* rng, int num_symbols, int num_states) {
  Nfa nfa(num_symbols);
  nfa.AddStates(num_states);
  for (StateId s = 0; s < num_states; ++s) {
    nfa.SetInitial(s, rng->Chance(0.3));
    nfa.SetAccepting(s, rng->Chance(0.3));
    const int arcs = static_cast<int>(rng->Below(2 * num_symbols + 2));
    for (int i = 0; i < arcs; ++i) {
      Symbol symbol = rng->Chance(0.15)
                          ? kEpsilon
                          : static_cast<Symbol>(rng->Below(num_symbols));
      nfa.AddTransition(s, symbol,
                        static_cast<StateId>(rng->Below(num_states)));
    }
  }
  return nfa;
}

// The reference product: every arc of x against every arc of y.
Nfa ReferenceIntersect(const Nfa& a_in, const Nfa& b_in) {
  const Nfa a = RemoveEpsilons(a_in);
  const Nfa b = RemoveEpsilons(b_in);
  Nfa out(a.num_symbols());
  std::unordered_map<uint64_t, StateId> ids;
  std::queue<std::pair<StateId, StateId>> work;
  auto key = [](StateId x, StateId y) {
    return (static_cast<uint64_t>(x) << 32) | static_cast<uint32_t>(y);
  };
  auto get = [&](StateId x, StateId y) {
    auto [it, inserted] = ids.emplace(key(x, y), 0);
    if (inserted) {
      it->second = out.AddState();
      work.emplace(x, y);
      if (a.IsAccepting(x) && b.IsAccepting(y)) out.SetAccepting(it->second);
    }
    return it->second;
  };
  for (StateId x : a.InitialStates()) {
    for (StateId y : b.InitialStates()) out.SetInitial(get(x, y));
  }
  while (!work.empty()) {
    auto [x, y] = work.front();
    work.pop();
    StateId from = ids[key(x, y)];
    for (const Nfa::Arc& ax : a.ArcsFrom(x)) {
      for (const Nfa::Arc& by : b.ArcsFrom(y)) {
        if (ax.first == by.first) {
          out.AddTransition(from, ax.first, get(ax.second, by.second));
        }
      }
    }
  }
  return out;
}

// The reference inclusion check: L(a) ∩ complement(L(b)) = ∅.
bool ReferenceIsSubsetOf(const Nfa& a, const Nfa& b) {
  return IsEmpty(ReferenceIntersect(a, ComplementNfa(b)));
}

TEST_P(SymbolIndexedProductTest, IntersectMatchesArcPairScan) {
  Rng rng(GetParam() + 7000);
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(4));
    Nfa a = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(9)));
    Nfa b = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(9)));
    EXPECT_EQ(Dump(IntersectNfa(a, b)), Dump(ReferenceIntersect(a, b)));
    EXPECT_EQ(Dump(IntersectNfa(b, a)), Dump(ReferenceIntersect(b, a)));
  }
}

TEST_P(SymbolIndexedProductTest, InclusionMatchesComplementCheck) {
  Rng rng(GetParam() + 8000);
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(3));
    Nfa a = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(7)));
    Nfa b = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(7)));
    // Random pairs are rarely included; the derived pairs always are.
    const Nfa both = IntersectNfa(a, b);
    const Nfa either = UnionNfa(a, b);
    for (const auto& [x, y] :
         std::vector<std::pair<const Nfa*, const Nfa*>>{
             {&a, &b}, {&b, &a}, {&both, &a}, {&a, &either}, {&either, &a},
             {&a, &a}}) {
      EXPECT_EQ(IsSubsetOf(*x, *y), ReferenceIsSubsetOf(*x, *y))
          << "a:\n" << Dump(*x) << "b:\n" << Dump(*y);
    }
    EXPECT_TRUE(IsSubsetOf(both, b));
    EXPECT_TRUE(IsSubsetOf(b, either));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolIndexedProductTest,
                         ::testing::Range(0, 16));

// Byte identity of the flat-table constructions against the per-state
// closure / per-state list / hash-map references in reference_ops.h, on
// random NFAs with ε-arcs, duplicate arcs, and several or no initial
// states.
class FlatTableIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatTableIdentityTest, RemoveEpsilonsAndTrimMatchReference) {
  Rng rng(GetParam() + 9000);
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(4));
    Nfa a = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(12)));
    EXPECT_EQ(Dump(RemoveEpsilons(a)), Dump(reference::RemoveEpsilons(a)))
        << Dump(a);
    EXPECT_EQ(Dump(Trim(a)), Dump(reference::Trim(a))) << Dump(a);
    const Nfa free = RemoveEpsilons(a);
    EXPECT_EQ(Dump(Trim(free)), Dump(reference::Trim(free))) << Dump(a);
  }
}

TEST_P(FlatTableIdentityTest, IntersectMatchesHashMapProduct) {
  Rng rng(GetParam() + 9500);
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(6));
    Nfa a = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(12)));
    Nfa b = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(12)));
    EXPECT_EQ(Dump(IntersectNfa(a, b)), Dump(reference::Intersect(a, b)));
    EXPECT_EQ(Dump(IntersectNfa(b, a)), Dump(reference::Intersect(b, a)));
    EXPECT_EQ(Dump(IntersectNfa(a, a)), Dump(reference::Intersect(a, a)));
    // ε-free operands are read in place rather than copied.
    const Nfa fa = RemoveEpsilons(a);
    const Nfa fb = RemoveEpsilons(b);
    EXPECT_EQ(Dump(IntersectNfa(fa, fb)), Dump(reference::Intersect(fa, fb)));
  }
}

// The hash-interned subset construction numbers DFA states exactly as the
// map-interned one: same table, same flags, so every complement is
// unchanged too.
TEST_P(FlatTableIdentityTest, DeterminizeMatchesMapInterning) {
  Rng rng(GetParam() + 9700);
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(4));
    Nfa a = RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(12)));
    EXPECT_EQ(Dump(Determinize(a).ToNfa()),
              Dump(reference::Determinize(a).ToNfa()))
        << Dump(a);
  }
}

// On(s, symbol) against a scan of s's arcs, ε included, on random NFAs
// and on a chain whose every state has one arc on the same symbol.
TEST_P(FlatTableIdentityTest, ArcsBySymbolOnMatchesScan) {
  Rng rng(GetParam() + 9900);
  std::vector<Nfa> nfas;
  for (int round = 0; round < 8; ++round) {
    const int symbols = 1 + static_cast<int>(rng.Below(6));
    nfas.push_back(
        RandomNfa(&rng, symbols, 1 + static_cast<int>(rng.Below(20))));
  }
  Nfa chain(2);
  chain.AddStates(64);
  for (StateId s = 0; s + 1 < 64; ++s) chain.AddTransition(s, 1, s + 1);
  nfas.push_back(chain);
  for (const Nfa& nfa : nfas) {
    const ArcsBySymbol arcs(nfa);
    for (StateId s = 0; s < nfa.num_states(); ++s) {
      for (Symbol symbol = kEpsilon; symbol < nfa.num_symbols(); ++symbol) {
        std::vector<Nfa::Arc> expected;
        for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
          if (arc.first == symbol) expected.push_back(arc);
        }
        std::span<const Nfa::Arc> found = arcs.On(s, symbol);
        EXPECT_EQ(std::vector<Nfa::Arc>(found.begin(), found.end()), expected)
            << "state " << s << " symbol " << symbol << "\n" << Dump(nfa);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatTableIdentityTest,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace ecrpq
