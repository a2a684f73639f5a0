// The general ECRPQ product engine (Theorems 5.1, 6.1, 6.3) on the paper's
// own example queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/eval_product.h"
#include "core/evaluator.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "reference_ops.h"
#include "util/random.h"

namespace ecrpq {
namespace {

QueryResult Eval(const GraphDb& g, std::string_view text,
                 Engine engine = Engine::kProduct) {
  auto query = ParseQuery(text, g.alphabet());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  EvalOptions options;
  options.engine = engine;
  Evaluator evaluator(&g, options);
  auto result = evaluator.Evaluate(query.value());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// The squared-strings ECRPQ of the introduction:
//   Ans(x, y) <- (x, π1, z), (z, π2, y), π1 = π2.
TEST(ProductEngine, SquaredStrings) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  // Word abab: squared (w=ab); word aba: not squared... (odd length).
  GraphDb squared = WordGraph(alphabet, {0, 1, 0, 1});
  QueryResult r = Eval(
      squared, "Ans(x, y) <- (x, pi1, z), (z, pi2, y), eq(pi1, pi2)");
  // Pairs (wi, wj) connected by a squared-string path: all (wi, wi) via
  // empty paths, plus (w0, w4) via abab, plus (w1,w3)? b vs a — no, plus
  // (w0,w2) via aa? label is ab|ab... (w0..w2) = "ab" split "a","b": not
  // equal. (w1, w3) = "ba" -> "b","a": no. (w2, w4) = "ab": no.
  // (w0, w4): split "ab"/"ab": yes.
  std::set<std::vector<NodeId>> expected;
  for (NodeId v = 0; v < squared.num_nodes(); ++v) expected.insert({v, v});
  expected.insert({*squared.FindNode("w0"), *squared.FindNode("w4")});
  std::set<std::vector<NodeId>> actual(r.tuples().begin(), r.tuples().end());
  EXPECT_EQ(actual, expected);
}

// Proposition 3.2's separating query: nodes connected by a^m b^m.
TEST(ProductEngine, EqualBlocksAmBm) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb good = WordGraph(alphabet, {0, 0, 1, 1});   // aabb
  GraphDb bad = WordGraph(alphabet, {0, 0, 1});       // aab
  const char* q =
      "Ans(x, y) <- (x, pi1, z), (z, pi2, y), a+(pi1), b+(pi2), "
      "el(pi1, pi2)";
  QueryResult r_good = Eval(good, q);
  ASSERT_EQ(r_good.tuples().size(), 2u);  // ab (w1..w3) and aabb (w0..w4)
  QueryResult r_bad = Eval(bad, q);
  ASSERT_EQ(r_bad.tuples().size(), 1u);   // only ab at (w1, w3)
}

// Section 4: a^n b^n c^n via two equal-length constraints.
TEST(ProductEngine, AnBnCn) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  GraphDb good = WordGraph(alphabet, {0, 0, 1, 1, 2, 2});  // aabbcc
  GraphDb bad = WordGraph(alphabet, {0, 0, 1, 1, 2});      // aabbc
  const char* q =
      "Ans(x, y) <- (x, p1, z1), (z1, p2, z2), (z2, p3, y), "
      "a*(p1), b*(p2), c*(p3), el(p1, p2), el(p2, p3)";
  // good: (w0, w6) with n=2, plus n=0 (empty everywhere) for all (v,v).
  // No other pair: aabbcc has no proper aⁿbⁿcⁿ substring (e.g. w1..w5
  // spells "abbc").
  QueryResult r_good = Eval(good, q);
  std::set<std::vector<NodeId>> actual(r_good.tuples().begin(),
                                       r_good.tuples().end());
  EXPECT_TRUE(actual.count({*good.FindNode("w0"), *good.FindNode("w6")}));
  EXPECT_FALSE(actual.count({*good.FindNode("w1"), *good.FindNode("w5")}));
  EXPECT_EQ(actual.size(), 7u + 1u);  // 7 diagonal pairs + (w0, w6)

  QueryResult r_bad = Eval(bad, q);
  std::set<std::vector<NodeId>> bad_actual(r_bad.tuples().begin(),
                                           r_bad.tuples().end());
  EXPECT_FALSE(
      bad_actual.count({*bad.FindNode("w0"), *bad.FindNode("w5")}));
}

TEST(ProductEngine, EmptyPathsAndBoolean) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g(alphabet);
  g.AddNode("only");
  // A single node with no edges: the empty path satisfies a*.
  QueryResult r = Eval(g, "Ans() <- (x, p, y), a*(p)");
  EXPECT_TRUE(r.AsBool());
  QueryResult r2 = Eval(g, "Ans() <- (x, p, y), a+(p)");
  EXPECT_FALSE(r2.AsBool());
}

TEST(ProductEngine, ConstantsPinNodes) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1});
  QueryResult r =
      Eval(g, R"(Ans(y) <- ("w0", p, y), a(p))");
  ASSERT_EQ(r.tuples().size(), 1u);
  EXPECT_EQ(r.tuples()[0][0], *g.FindNode("w1"));
  // Unknown constant is an error.
  auto query = ParseQuery(R"(Ans() <- ("nope", p, y), a(p))", g.alphabet());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ProductEngine, MultiComponentJoin) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  // Graph: x0 -a-> x1 -b-> x2.
  GraphDb g = WordGraph(alphabet, {0, 1});
  // Two independent atoms sharing node variable y:
  //   (x, p, y) with a(p), (y, q, z) with b(q): y must be w1.
  QueryResult r = Eval(g, "Ans(y) <- (x, p, y), (y, q, z), a(p), b(q)");
  ASSERT_EQ(r.tuples().size(), 1u);
  EXPECT_EQ(r.tuples()[0][0], *g.FindNode("w1"));
}

// Proposition 6.8 semantics: a repeated path variable must bind to one
// path satisfying all its atoms' endpoints and languages.
TEST(ProductEngine, RelationalRepetition) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g(alphabet);
  NodeId u = g.AddNode("u");
  NodeId v = g.AddNode("v");
  g.AddEdge(u, Symbol{0}, v);  // a
  g.AddEdge(u, Symbol{1}, v);  // b
  // (x, p, y), a(p), b(p): no single path is both a and b.
  QueryResult r1 = Eval(g, "Ans() <- (x, p, y), a(p), b(p)");
  EXPECT_FALSE(r1.AsBool());
  // Same path variable in two atoms: endpoints must agree.
  QueryResult r2 = Eval(g, "Ans(x, z) <- (x, p, y), (z, p, w), a(p)");
  // p binds one concrete path; x and z are both its start: x == z always.
  for (const auto& tuple : r2.tuples()) {
    EXPECT_EQ(tuple[0], tuple[1]);
  }
  EXPECT_FALSE(r2.tuples().empty());
}

// Theorem 6.3's REI reduction instance: Q_R on the universal word graph is
// true iff the intersection of the expressions is nonempty.
TEST(ProductEngine, ReiReduction) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = UniversalWordGraph(alphabet);
  // a(a|b)* ∩ (a|b)*b ∩ (ab)* = { ab, abab, ... } nonempty.
  QueryResult yes = Eval(
      g,
      "Ans() <- (x1, p1, y1), (x2, p2, y2), (x3, p3, y3), "
      "a.*(p1), .*b(p2), (ab)*(p3), eq(p1, p2), eq(p2, p3)");
  EXPECT_TRUE(yes.AsBool());
  // a(a|b)* ∩ b(a|b)* = ∅.
  QueryResult no = Eval(g,
                        "Ans() <- (x1, p1, y1), (x2, p2, y2), "
                        "a.*(p1), b.*(p2), eq(p1, p2)");
  EXPECT_FALSE(no.AsBool());
}

TEST(ProductEngine, CyclicGraphInfinitePaths) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 3, "a");
  // Nodes with an equal-length pair of paths to themselves: all of them.
  QueryResult r = Eval(
      g, "Ans(x) <- (x, p, x), (x, q, x), el(p, q), a+(p), a+(q)");
  EXPECT_EQ(r.tuples().size(), 3u);
}

TEST(ProductEngine, PrefixRelationAcrossTracks) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = WordGraph(alphabet, {0, 1, 0});  // aba
  // π1 strict prefix of π2, both from w0.
  QueryResult r = Eval(g,
                       "Ans(u, v) <- (x, p1, u), (x, p2, v), "
                       "strict_prefix(p1, p2)");
  // p1 = ε, p2 any nonempty: (w0, w1), (w0, w2), (w0, w3); p1 = a,
  // p2 = ab/aba: (w1, w2), (w1, w3); p1 = ab: (w2, w3).
  EXPECT_EQ(r.tuples().size(), 6u);
}

TEST(ProductEngine, RejectsLinearAtoms) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 2, "a");
  auto query = ParseQuery("Ans() <- (x, p, y), len(p) >= 1", g.alphabet());
  ASSERT_TRUE(query.ok());
  auto result = EvaluateProduct(g, query.value(), EvalOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProductEngine, MaxConfigsGuard) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = CycleGraph(alphabet, 5, "a");
  auto query = ParseQuery(
      "Ans() <- (x, p, y), (x, q, y), el(p, q)", g.alphabet());
  ASSERT_TRUE(query.ok());
  EvalOptions options;
  options.max_configs = 3;
  auto result = EvaluateProduct(g, query.value(), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProductEngine, ComponentsMatchJointEvaluation) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(3);
  GraphDb g = RandomGraph(alphabet, 5, 12, &rng);
  const char* q =
      "Ans(x, y) <- (x, p, y), (x, q, y), el(p, q), (y, r, z), a*(r)";
  auto query = ParseQuery(q, g.alphabet());
  ASSERT_TRUE(query.ok());
  EvalOptions with;
  with.use_components = true;
  EvalOptions without;
  without.use_components = false;
  auto r1 = EvaluateProduct(g, query.value(), with);
  auto r2 = EvaluateProduct(g, query.value(), without);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1.value().tuples(), r2.value().tuples());
}

// Many relations over two tracks squeeze the packed-config codec's
// subset-id field to one bit (29 relations share the 50-56 bits two
// tracks leave on a graph of at most 16 nodes), so a product search's
// visited table starts on packed 8-byte codes and switches to stored
// configurations once the search's subset pool interns a third state
// set — in the middle of a search, with packed codes already queued (the
// first searches switch after up to ten codes; later ones, whose pool
// already holds the state sets, after their first). Answers must still
// match the brute-force semantics (the DAG bounds every path, so its
// length bound is exact).
TEST(ProductEngine, VisitedTableSwitchesToStoredConfigsMidSearch) {
  Rng rng(3);
  GraphDb g = LayeredGraph(Alphabet::FromLabels({"a", "b"}), 4, 4, 3, &rng);
  ASSERT_GT(g.num_nodes(), 8);
  ASSERT_LE(g.num_nodes(), 16);
  // 29 relations: the length bound's NFA reaches a third state set only
  // after two letters, and the el atoms never leave their first one.
  std::string text =
      "Ans(x, y, z) <- (x, p, y), (x, q, z), (a|b)(a|b)(a|b)*(p)";
  for (int i = 0; i < 28; ++i) text += ", el(p, q)";
  QueryResult product = Eval(g, text);
  QueryResult brute = Eval(g, text, Engine::kBruteForce);
  std::set<std::vector<NodeId>> expected(brute.tuples().begin(),
                                         brute.tuples().end());
  std::set<std::vector<NodeId>> actual(product.tuples().begin(),
                                       product.tuples().end());
  EXPECT_EQ(actual, expected);
  EXPECT_GT(actual.size(), static_cast<size_t>(g.num_nodes()));
}

std::vector<StateId> Targets(std::span<const Nfa::Arc> arcs) {
  std::vector<StateId> out;
  for (const Nfa::Arc& arc : arcs) out.push_back(arc.second);
  return out;
}

// CompileQuery's symbol-sorted arc tables against per-state symbol maps
// built here from the relation automaton: the same successor and
// predecessor lists, in arc order, for every (state, symbol); the same
// endpoint sets; and the same tape masks decoded arc by arc.
TEST(CompileQueryTables, MatchPerStateSymbolMaps) {
  auto letters = [](int n, bool multi_char) {
    std::vector<std::string> labels;
    for (int i = 0; i < n; ++i) {
      labels.push_back(multi_char ? "l" + std::to_string(i)
                                  : std::string(1, static_cast<char>('a' + i)));
    }
    return Alphabet::FromLabels(labels);
  };
  const std::vector<std::pair<AlphabetPtr, std::string>> cases = {
      {letters(16, false), "Ans() <- (x, p, y), (x, q, z), edit2(p, q)"},
      {letters(16, false),
       "Ans() <- (x, p, y), (x, q, z), edit1(p, q), prefix(p, q), "
       "(a|b)*c(p), el(q, p)"},
      {letters(2, false), "Ans() <- (x, p, y), (x, q, z), edit3(p, q)"},
      // More than 64 letters: no letter masks (all ones).
      {letters(70, true), "Ans() <- (x, p, y), (x, q, z), eq(p, q)"},
  };
  for (const auto& [alphabet, text] : cases) {
    GraphDb g(alphabet);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;
    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    ASSERT_TRUE(compiled.ok()) << text;
    for (const ResolvedRelation& rr : compiled.value()->relations) {
      const TupleAlphabet& ta = rr.relation->tuple_alphabet();
      const Nfa nfa = reference::RemoveEpsilons(rr.relation->nfa());
      ASSERT_EQ(Dump(rr.nfa), Dump(nfa)) << text;
      const int n = nfa.num_states();
      const int arity = ta.arity();
      const uint64_t none = ta.base_size() > 64 ? ~0ULL : 0;
      std::vector<std::map<Symbol, std::vector<StateId>>> fwd(n), rev(n);
      std::vector<std::vector<uint64_t>> masks(
          n, std::vector<uint64_t>(arity, none));
      std::vector<std::vector<uint64_t>> rev_masks = masks;
      for (StateId s = 0; s < n; ++s) {
        for (const Nfa::Arc& arc : nfa.ArcsFrom(s)) {
          fwd[s][arc.first].push_back(arc.second);
          rev[arc.second][arc.first].push_back(s);
          if (ta.base_size() > 64) continue;
          TupleLetter letter = ta.Decode(arc.first);
          for (int tape = 0; tape < arity; ++tape) {
            if (letter[tape] == kPad) continue;
            masks[s][tape] |= 1ULL << letter[tape];
            rev_masks[arc.second][tape] |= 1ULL << letter[tape];
          }
        }
      }
      for (StateId s = 0; s < n; ++s) {
        for (Symbol sym = 0; sym < nfa.num_symbols(); ++sym) {
          auto f = fwd[s].find(sym);
          EXPECT_EQ(Targets(rr.arcs.On(s, sym)),
                    f == fwd[s].end() ? std::vector<StateId>{} : f->second)
              << text << " state " << s << " symbol " << sym;
          auto r = rev[s].find(sym);
          EXPECT_EQ(Targets(rr.rev_arcs.On(s, sym)),
                    r == rev[s].end() ? std::vector<StateId>{} : r->second)
              << text << " state " << s << " symbol " << sym;
        }
        EXPECT_EQ(rr.accepting[s], nfa.IsAccepting(s));
        EXPECT_EQ(rr.rev_accepting[s], nfa.IsInitial(s));
      }
      EXPECT_EQ(rr.initial, nfa.InitialStates());
      EXPECT_EQ(rr.rev_initial, nfa.AcceptingStates());
      EXPECT_EQ(rr.tape_masks, masks) << text;
      EXPECT_EQ(rr.rev_tape_masks, rev_masks) << text;
    }
  }
}

// The emitter's head set against std::set: the same first-occurrence
// answers over widths 0-3, small value ranges (many repeats) and enough
// rows to grow the table several times.
TEST(PackedRowSet, MatchesStdSet) {
  Rng rng(77);
  for (size_t width = 0; width <= 3; ++width) {
    for (int range : {2, 50, 100000}) {
      PackedRowSet rows(width);
      std::set<std::vector<NodeId>> reference;
      for (int i = 0; i < 5000; ++i) {
        std::vector<NodeId> row(width);
        for (NodeId& v : row) v = static_cast<NodeId>(rng.Below(range));
        ASSERT_EQ(rows.Insert(row), reference.insert(row).second)
            << "width " << width << " range " << range << " row " << i;
      }
    }
  }
}

// SortUnique (pair keys at arity 2, fixed-width rows at 3 and 4, the row
// permutation above) against SortedOrder plus adjacent-duplicate removal,
// on random rows with many repeats and negative ids (the sort is signed).
TEST(RowBuffer, SortUniqueMatchesSortedOrder) {
  Rng rng(91);
  for (size_t arity = 1; arity <= 5; ++arity) {
    for (int range : {3, 1000}) {
      RowBuffer rows(arity);
      for (int i = 0; i < 4000; ++i) {
        std::span<NodeId> row = rows.Append();
        for (NodeId& v : row) v = static_cast<NodeId>(rng.Below(range)) - 1;
      }
      RowBuffer want(arity);
      for (uint32_t r : rows.SortedOrder()) {
        if (want.empty() ||
            !std::ranges::equal(rows[r], want[want.size() - 1])) {
          want.push_back(rows[r]);
        }
      }
      rows.SortUnique();
      EXPECT_EQ(rows, want) << "arity " << arity << " range " << range;
      if (range == 3) {
        EXPECT_LT(want.size(), 4000u);  // duplicates were dropped
      }
    }
  }
}

}  // namespace
}  // namespace ecrpq
