// Query rewriting: soundness (same answers on every graph tested) and the
// individual rewrite rules.

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "graph/generators.h"
#include "query/analysis.h"
#include "query/builder.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "relations/builtin.h"

namespace ecrpq {
namespace {

AlphabetPtr Ab() { return Alphabet::FromLabels({"a", "b"}); }

TEST(Optimizer, FusesUnaryAtoms) {
  auto alphabet = Ab();
  auto query = ParseQuery(
      "Ans(x, y) <- (x, p, y), a*(p), .*b(p), (a|b)*(p)", *alphabet);
  ASSERT_TRUE(query.ok());
  auto optimized = OptimizeQuery(query.value());
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  // Three unary atoms become one ((a|b)* is universal and dropped; the
  // other two fuse; a* ∩ Σ*b = ∅ → proven empty).
  EXPECT_EQ(optimized.value().query.relation_atoms().size(), 1u);
  EXPECT_GE(optimized.value().report.fused_language_atoms, 1);
  EXPECT_GE(optimized.value().report.dropped_universal, 1);
  EXPECT_TRUE(optimized.value().report.proven_empty);
}

TEST(Optimizer, DropsUniversalRelations) {
  auto alphabet = Ab();
  auto universal = std::make_shared<RegularRelation>(UniversalRelation(2, 2));
  auto query = QueryBuilder()
                   .Atom("x", "p", "y")
                   .Atom("x", "q", "y")
                   .Relation(universal, {"p", "q"}, "all")
                   .Head({"x"})
                   .Build();
  ASSERT_TRUE(query.ok());
  auto optimized = OptimizeQuery(query.value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE(optimized.value().query.relation_atoms().empty());
  EXPECT_EQ(optimized.value().report.dropped_universal, 1);
  // Dropping the binary atom also splits the synchronization component.
  QueryAnalysis analysis = Analyze(optimized.value().query);
  EXPECT_EQ(analysis.components.size(), 2u);
}

// The universality test is an inclusion check of the valid convolutions
// in the relation; its verdicts must equal the complement-emptiness check
// it replaced (same 64-state cutoff) over the builtin catalogue.
TEST(Optimizer, UniversalVerdictsMatchComplementCheck) {
  for (int base = 2; base <= 4; ++base) {
    const std::vector<std::pair<std::string, RegularRelation>> catalogue = {
        {"eq", EqualityRelation(base)},
        {"el", EqualLengthRelation(base)},
        {"prefix", PrefixRelation(base)},
        {"edit1", EditDistanceAtMostRelation(base, 1)},
        {"edit2", EditDistanceAtMostRelation(base, 2)},
        {"hamming", HammingDistanceAtMostRelation(base, 1)},
        {"universal", UniversalRelation(base, 2)},
    };
    for (const auto& [name, rel] : catalogue) {
      SCOPED_TRACE(name + " at base " + std::to_string(base));
      const bool reference =
          rel.nfa().num_states() <= 64 && rel.Complement().IsEmpty();
      auto query = QueryBuilder()
                       .Atom("x", "p", "y")
                       .Atom("x", "q", "y")
                       .Relation(std::make_shared<RegularRelation>(rel),
                                 {"p", "q"}, name)
                       .Head({"x"})
                       .Build();
      ASSERT_TRUE(query.ok());
      auto optimized = OptimizeQuery(query.value());
      ASSERT_TRUE(optimized.ok());
      EXPECT_EQ(optimized.value().report.dropped_universal, reference ? 1 : 0);
      EXPECT_EQ(reference, name == "universal");
    }
  }
}

TEST(Optimizer, KeepsConstrainingRelations) {
  auto alphabet = Ab();
  auto query = ParseQuery(
      "Ans() <- (x, p, y), (x, q, y), el(p, q), a+(p)", *alphabet);
  ASSERT_TRUE(query.ok());
  auto optimized = OptimizeQuery(query.value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized.value().query.relation_atoms().size(), 2u);
  EXPECT_FALSE(optimized.value().report.proven_empty);
}

TEST(Optimizer, ReportDescribe) {
  auto alphabet = Ab();
  auto query = ParseQuery("Ans() <- (x, p, y), a*(p), a+(p)", *alphabet);
  ASSERT_TRUE(query.ok());
  auto optimized = OptimizeQuery(query.value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_NE(optimized.value().report.Describe().find("fused=1"),
            std::string::npos);
}

// Property: optimization preserves answers on random graphs.
class OptimizerSoundness : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerSoundness, SameAnswers) {
  Rng rng(GetParam() + 5);
  auto alphabet = Ab();
  GraphDb g = RandomGraph(alphabet, 5, 12, &rng);
  const char* queries[] = {
      "Ans(x, y) <- (x, p, y), a*(p), (a|b)*(p)",
      "Ans(x, y) <- (x, p, y), a*b(p), .*b(p)",
      "Ans() <- (x, p, y), (x, q, y), el(p, q), .*(p)",
      "Ans(x) <- (x, p, y), (y, q, z), ab*(p), b+(q), .*(q)",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok());
    auto optimized = OptimizeQuery(query.value());
    ASSERT_TRUE(optimized.ok());
    EvalOptions options;
    options.build_path_answers = false;
    options.max_configs = 500000;
    Evaluator evaluator(&g, options);
    auto before = evaluator.Evaluate(query.value());
    auto after = evaluator.Evaluate(optimized.value().query);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(before.value().tuples(), after.value().tuples());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerSoundness, ::testing::Range(0, 8));

}  // namespace
}  // namespace ecrpq
