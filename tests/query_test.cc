// Query AST, builder validation, text parser, and structural analysis.

#include <gtest/gtest.h>

#include "query/analysis.h"
#include "query/builder.h"
#include "query/parser.h"
#include "relations/builtin.h"

namespace ecrpq {
namespace {

AlphabetPtr Ab() { return Alphabet::FromLabels({"a", "b"}); }

TEST(Builder, BasicEcrpq) {
  auto alphabet = Ab();
  auto eq = std::make_shared<RegularRelation>(EqualityRelation(2));
  auto query = QueryBuilder()
                   .Atom("x", "pi1", "z")
                   .Atom("z", "pi2", "y")
                   .Relation(eq, {"pi1", "pi2"}, "eq")
                   .Head({"x", "y"})
                   .Build();
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().path_atoms().size(), 2u);
  EXPECT_EQ(query.value().node_variables(),
            (std::vector<std::string>{"x", "z", "y"}));
  EXPECT_EQ(query.value().path_variables(),
            (std::vector<std::string>{"pi1", "pi2"}));
  EXPECT_FALSE(query.value().IsBoolean());
  EXPECT_NE(query.value().ToString().find("eq(pi1, pi2)"),
            std::string::npos);
}

TEST(Builder, ValidationErrors) {
  auto alphabet = Ab();
  auto eq = std::make_shared<RegularRelation>(EqualityRelation(2));
  // No path atoms.
  EXPECT_FALSE(QueryBuilder().Head({}).Build().ok());
  // Arity mismatch.
  EXPECT_FALSE(QueryBuilder()
                   .Atom("x", "p", "y")
                   .Relation(eq, {"p"})
                   .Build()
                   .ok());
  // Unbound path variable in a relation atom.
  EXPECT_FALSE(QueryBuilder()
                   .Atom("x", "p", "y")
                   .Relation(eq, {"p", "q"})
                   .Build()
                   .ok());
  // Head variable not in the body.
  EXPECT_FALSE(
      QueryBuilder().Atom("x", "p", "y").Head({"w"}).Build().ok());
  // Head path variable not in the body.
  EXPECT_FALSE(
      QueryBuilder().Atom("x", "p", "y").Head({}, {"q"}).Build().ok());
  // Mixed alphabets.
  auto eq3 = std::make_shared<RegularRelation>(EqualityRelation(3));
  EXPECT_FALSE(QueryBuilder()
                   .Atom("x", "p", "y")
                   .Atom("x", "q", "y")
                   .Relation(eq, {"p", "q"})
                   .Relation(eq3, {"p", "q"})
                   .Build()
                   .ok());
  // Unbound variable in a linear atom.
  LinearAtom atom;
  atom.terms.push_back({1, "nope", -1});
  EXPECT_FALSE(
      QueryBuilder().Atom("x", "p", "y").Linear(atom).Build().ok());
}

TEST(Parser, SquaredStringsQuery) {
  auto alphabet = Ab();
  auto query =
      ParseQuery("Ans(x, y) <- (x, pi1, z), (z, pi2, y), eq(pi1, pi2)",
                 *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().head_nodes().size(), 2u);
  EXPECT_EQ(query.value().relation_atoms().size(), 1u);
  EXPECT_EQ(query.value().relation_atoms()[0].relation->arity(), 2);
}

TEST(Parser, RegexAtomsAndPathHead) {
  auto alphabet = Ab();
  auto query = ParseQuery("Ans(x, p) <- (x, p, y), a*b+(p)", *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().head_paths(), std::vector<std::string>{"p"});
  EXPECT_EQ(query.value().head_nodes().size(), 1u);
}

TEST(Parser, TupleRegexAtom) {
  auto alphabet = Ab();
  auto query = ParseQuery(
      "Ans() <- (x, p, y), (x, q, y), ([a,a]|[b,b])*(p, q)", *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(query.value().IsBoolean());
  EXPECT_EQ(query.value().relation_atoms()[0].relation->arity(), 2);
}

TEST(Parser, ConstantsAndBoolean) {
  auto alphabet = Ab();
  auto query = ParseQuery(R"(Ans() <- ("London", p, "Sydney"), a*(p))",
                          *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(query.value().path_atoms()[0].from.is_constant);
  EXPECT_EQ(query.value().path_atoms()[0].from.name, "London");
  EXPECT_TRUE(query.value().node_variables().empty());
}

TEST(Parser, LinearAtoms) {
  auto alphabet = Ab();
  auto query = ParseQuery(
      "Ans(x) <- (x, p, y), occ(p, a) - 4*occ(p, b) >= 0, len(p) <= 9",
      *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().linear_atoms().size(), 2u);
  const LinearAtom& occ = query.value().linear_atoms()[0];
  EXPECT_EQ(occ.terms.size(), 2u);
  EXPECT_EQ(occ.terms[1].coef, -4);
  EXPECT_EQ(occ.cmp, Cmp::kGe);
  const LinearAtom& len = query.value().linear_atoms()[1];
  EXPECT_EQ(len.terms[0].symbol, -1);
  EXPECT_EQ(len.cmp, Cmp::kLe);
  EXPECT_EQ(len.rhs, 9);
}

TEST(Parser, Errors) {
  auto alphabet = Ab();
  EXPECT_FALSE(ParseQuery("Answer(x) <- (x, p, y)", *alphabet).ok());
  EXPECT_FALSE(ParseQuery("Ans(x) (x, p, y)", *alphabet).ok());
  EXPECT_FALSE(ParseQuery("Ans(x) <- (x, p)", *alphabet).ok());
  EXPECT_FALSE(ParseQuery("Ans(x) <- (x, p, y), zzz(q)", *alphabet).ok());
  EXPECT_FALSE(
      ParseQuery("Ans(x) <- (x, p, y), occ(p, zz) >= 1", *alphabet).ok());
  EXPECT_FALSE(ParseQuery("Ans(w) <- (x, p, y)", *alphabet).ok());
}

TEST(Registry, BuiltinsResolve) {
  RelationRegistry registry = RelationRegistry::Default();
  EXPECT_TRUE(registry.Contains("eq"));
  EXPECT_TRUE(registry.Contains("el"));
  EXPECT_TRUE(registry.Contains("prefix"));
  EXPECT_TRUE(registry.Contains("edit2"));
  auto rel = registry.Resolve("el", 3);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->base_size(), 3);
  // Memoization returns the same instance.
  EXPECT_EQ(registry.Resolve("el", 3).get(), rel.get());
  EXPECT_EQ(registry.Resolve("missing", 2), nullptr);
}

TEST(Analysis, CrpqVsEcrpq) {
  auto alphabet = Ab();
  auto crpq = ParseQuery("Ans(x) <- (x, p, y), a*(p)", *alphabet);
  ASSERT_TRUE(crpq.ok());
  EXPECT_TRUE(Analyze(crpq.value()).is_crpq);
  // Describe() leads with the Figure 1 class that PreparedQuery::analysis()
  // and query_shell print.
  EXPECT_EQ(Analyze(crpq.value()).Describe().rfind("CRPQ", 0), 0u);

  auto ecrpq = ParseQuery("Ans(x) <- (x, p, y), (x, q, y), el(p, q)",
                          *alphabet);
  ASSERT_TRUE(ecrpq.ok());
  QueryAnalysis analysis = Analyze(ecrpq.value());
  EXPECT_FALSE(analysis.is_crpq);
  EXPECT_EQ(analysis.Describe().rfind("ECRPQ", 0), 0u);
  EXPECT_EQ(analysis.components.size(), 1u);
}

TEST(Analysis, AcyclicityForest) {
  auto alphabet = Ab();
  // Chain: acyclic.
  auto chain = ParseQuery("Ans(x) <- (x, p, y), (y, q, z)", *alphabet);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(Analyze(chain.value()).is_acyclic);
  // Two parallel atoms between x and y: cyclic (multi-edge).
  auto parallel = ParseQuery("Ans(x) <- (x, p, y), (x, q, y)", *alphabet);
  ASSERT_TRUE(parallel.ok());
  EXPECT_FALSE(Analyze(parallel.value()).is_acyclic);
  // Self-loop atom: cyclic.
  auto loop = ParseQuery("Ans(x) <- (x, p, x)", *alphabet);
  ASSERT_TRUE(loop.ok());
  EXPECT_FALSE(Analyze(loop.value()).is_acyclic);
  // Triangle: cyclic.
  auto triangle = ParseQuery(
      "Ans(x) <- (x, p, y), (y, q, z), (z, r, x)", *alphabet);
  ASSERT_TRUE(triangle.ok());
  EXPECT_FALSE(Analyze(triangle.value()).is_acyclic);
  // Star: acyclic.
  auto star = ParseQuery(
      "Ans(x) <- (x, p, y), (x, q, z), (x, r, w)", *alphabet);
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(Analyze(star.value()).is_acyclic);
}

TEST(Analysis, Components) {
  auto alphabet = Ab();
  // Two el-linked pairs plus one free atom: 3 components... the two el
  // atoms tie (p,q) and (r,s); t stands alone.
  auto query = ParseQuery(
      "Ans() <- (a, p, b), (c, q, d), (e, r, f), (g, s, h), (i, t, j), "
      "el(p, q), el(r, s)",
      *alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  QueryAnalysis analysis = Analyze(query.value());
  EXPECT_EQ(analysis.components.size(), 3u);
}

TEST(Analysis, Repetitions) {
  auto alphabet = Ab();
  auto relational = ParseQuery("Ans() <- (x, p, y), (z, p, w)", *alphabet);
  ASSERT_TRUE(relational.ok());
  EXPECT_TRUE(Analyze(relational.value()).has_relational_repetition);

  auto eq = std::make_shared<RegularRelation>(EqualityRelation(2));
  auto regular = QueryBuilder()
                     .Atom("x", "p", "y")
                     .Relation(eq, {"p", "p"})
                     .Build();
  ASSERT_TRUE(regular.ok());
  EXPECT_TRUE(Analyze(regular.value()).has_regular_repetition);
}

TEST(Analysis, LinearAtomsMergeComponents) {
  auto alphabet = Ab();
  auto query = ParseQuery(
      "Ans() <- (a, p, b), (c, q, d), len(p) - len(q) >= 1", *alphabet);
  ASSERT_TRUE(query.ok());
  QueryAnalysis analysis = Analyze(query.value());
  EXPECT_EQ(analysis.components.size(), 1u);
  EXPECT_TRUE(analysis.has_linear_atoms);
  EXPECT_TRUE(analysis.linear_atoms_lengths_only);
}

}  // namespace
}  // namespace ecrpq
