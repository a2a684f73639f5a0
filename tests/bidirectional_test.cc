// Direction equivalence: the search direction of a component leaf —
// forward from start anchors, backward over the reversed tape from end
// anchors, or bidirectional meet-in-the-middle — is an execution detail
// and must be invisible in results: identical binding sets and identical
// path-answer witnesses for every direction, serial and morsel-parallel.
// Also unit-checks the compiled reversed tape itself (Reverse(Nfa)
// composed with the reversed transition maps and in-letter masks accepts
// exactly the reversed language) and the planner's direction choices as
// surfaced by Explain and operator stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "automata/operations.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/planner.h"
#include "graph/graph.h"
#include "query/parser.h"
#include "util/random.h"

namespace ecrpq {
namespace {

// A random graph whose nodes are all named (so random queries can anchor
// constants on them).
GraphDb NamedRandomGraph(int nodes, int edges, uint64_t seed) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(seed);
  GraphDb g(alphabet);
  for (int i = 0; i < nodes; ++i) g.AddNode("n" + std::to_string(i));
  for (int e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Below(nodes)),
              static_cast<Symbol>(rng.Below(2)),
              static_cast<NodeId>(rng.Below(nodes)));
  }
  return g;
}

// Random queries across the shapes the direction machinery dispatches:
// single-atom ReachabilityScan leaves and eq-synchronized ProductExpand
// pairs, with endpoints drawn from shared variables or node constants
// (constants are what anchor backward / bidirectional execution).
std::string RandomDirectionQuery(Rng* rng, int num_nodes, bool* has_paths) {
  static const char* kLanguages[] = {"a*", "b*", "a+", "ab", "(ab)*",
                                     "(a|b)*", "a(a|b)*", "(a|b)(a|b)*"};
  auto lang = [&]() { return kLanguages[rng->Below(8)]; };
  std::set<std::string> used_vars;
  int next_var = 0;
  auto pick_term = [&]() -> std::string {
    // 1 in 3: a node constant; otherwise a (possibly reused) variable.
    if (rng->Below(3) == 0) {
      return "\"n" + std::to_string(rng->Below(num_nodes)) + "\"";
    }
    std::string v;
    if (!used_vars.empty() && rng->Below(3) == 0) {
      auto it = used_vars.begin();
      std::advance(it, rng->Below(used_vars.size()));
      v = *it;
    } else {
      v = "x" + std::to_string(next_var++ % 4);
    }
    used_vars.insert(v);
    return v;
  };

  std::string body;
  int next_path = 0;
  std::vector<std::string> paths;
  const int num_groups = 1 + static_cast<int>(rng->Below(2));
  for (int c = 0; c < num_groups; ++c) {
    if (c > 0) body += ", ";
    if (rng->Below(3) == 0) {
      // eq-synchronized pair: one ProductExpand component.
      std::string p = "p" + std::to_string(next_path++);
      std::string q = "p" + std::to_string(next_path++);
      body += "(" + pick_term() + ", " + p + ", " + pick_term() + "), ";
      body += "(" + pick_term() + ", " + q + ", " + pick_term() + "), ";
      body += "eq(" + p + ", " + q + ")";
    } else {
      std::string p = "p" + std::to_string(next_path++);
      body += "(" + pick_term() + ", " + p + ", " + pick_term() + "), ";
      body += std::string(lang()) + "(" + p + ")";
      paths.push_back(p);
    }
  }
  std::vector<std::string> vars(used_vars.begin(), used_vars.end());
  std::string head;
  size_t head_arity = std::min<size_t>(vars.size(), 2);
  for (size_t i = 0; i < head_arity; ++i) {
    if (i > 0) head += ", ";
    head += vars[rng->Below(vars.size())];
  }
  // 1 in 4 queries with a head path variable: exercises path-answer
  // construction under every direction.
  *has_paths = false;
  if (!paths.empty() && rng->Below(4) == 0) {
    if (!head.empty()) head += ", ";
    head += paths[rng->Below(paths.size())];
    *has_paths = true;
  }
  return "Ans(" + head + ") <- " + body;
}

Result<QueryResult> RunDirected(const GraphDb& g, const Query& query,
                                SearchDirection direction, int num_threads,
                                bool with_paths) {
  EvalOptions options;
  options.direction = direction;
  options.num_threads = num_threads;
  options.build_path_answers = with_paths;
  Evaluator evaluator(&g, options);
  return evaluator.Evaluate(query);
}

// Witness fingerprint of one answer's path automaton: tuple count up to
// a length bound plus the rendered enumeration prefix.
std::string PathAnswerFingerprint(const GraphDb& g,
                                  const PathAnswerSet& answers) {
  std::string out = "count=" + std::to_string(answers.CountTuples(6));
  for (const PathTuple& tuple : answers.Enumerate(3, 6)) {
    out += ";";
    for (const Path& p : tuple) out += p.ToString(g) + "|";
  }
  return out;
}

// The property the tentpole rests on: for 100 random graph/query pairs,
// every forced direction (and the planner's auto choice) returns the
// same binding set and the same path-answer witnesses as the forward
// serial reference, at 1 and 4 worker lanes.
TEST(BidirectionalSearch, DirectionsAgreeOnRandomQueries) {
  int anchored_seen = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(9100 + seed);
    const int num_nodes = 8 + static_cast<int>(rng.Below(6));
    GraphDb g = NamedRandomGraph(num_nodes, 5 * num_nodes / 2, seed);
    bool with_paths = false;
    std::string text = RandomDirectionQuery(&rng, num_nodes, &with_paths);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;
    if (text.find('"') != std::string::npos) ++anchored_seen;

    auto reference = RunDirected(g, query.value(),
                                 SearchDirection::kForward, 1, with_paths);
    ASSERT_TRUE(reference.ok())
        << text << ": " << reference.status().ToString();

    for (SearchDirection dir :
         {SearchDirection::kAuto, SearchDirection::kForward,
          SearchDirection::kBackward, SearchDirection::kBidirectional}) {
      for (int threads : {1, 4}) {
        if (dir == SearchDirection::kForward && threads == 1) continue;
        auto run = RunDirected(g, query.value(), dir, threads, with_paths);
        ASSERT_TRUE(run.ok()) << text << " dir=" << SearchDirectionName(dir)
                              << " t=" << threads << ": "
                              << run.status().ToString();
        EXPECT_EQ(reference.value().tuples(), run.value().tuples())
            << text << " dir=" << SearchDirectionName(dir)
            << " t=" << threads;
        if (with_paths &&
            reference.value().tuples() == run.value().tuples()) {
          for (size_t i = 0; i < reference.value().tuples().size(); ++i) {
            EXPECT_EQ(
                PathAnswerFingerprint(g, reference.value().path_answers(i)),
                PathAnswerFingerprint(g, run.value().path_answers(i)))
                << text << " dir=" << SearchDirectionName(dir)
                << " t=" << threads << " tuple " << i;
          }
        }
      }
    }
  }
  // The generator must actually produce anchored queries, or the
  // backward/bidirectional paths were never stressed.
  EXPECT_GT(anchored_seen, 30);
}

// Reverse(Nfa) composed with the compiled reversed tape accepts exactly
// the reversed language, and the reversed structures are the exact
// transpose of the forward ones.
TEST(BidirectionalSearch, ReversedTapeIsExactTranspose) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  static const char* kRegexes[] = {"a*",        "ab",     "a(a|b)*b",
                                   "(ab|ba)*",  "a+b+",   "(a|b)(a|b)(a|b)",
                                   "b*a b* a b*"};
  GraphDb g(alphabet);
  g.AddNode("n0");
  for (const char* regex : kRegexes) {
    std::string text =
        "Ans() <- (x, p, y), " + std::string(regex) + "(p)";
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << text;
    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    ASSERT_TRUE(compiled.ok()) << text;
    const ResolvedRelation& rr = compiled.value()->relations[0];

    // Structural transpose: rev_arcs.On(s, sym) ∋ t  ⟺
    // arcs.On(t, sym) ∋ s; rev_initial = accepting; rev_accepting =
    // initial; rev_tape_masks[s] = OR of in-arc letters.
    const int n = rr.nfa.num_states();
    for (StateId s = 0; s < n; ++s) {
      EXPECT_EQ(rr.rev_accepting[s],
                std::find(rr.initial.begin(), rr.initial.end(), s) !=
                    rr.initial.end())
          << regex;
      EXPECT_EQ(std::find(rr.rev_initial.begin(), rr.rev_initial.end(),
                          s) != rr.rev_initial.end(),
                static_cast<bool>(rr.accepting[s]))
          << regex;
      uint64_t in_mask = 0;
      for (StateId t = 0; t < n; ++t) {
        for (Symbol sym = 0; sym < rr.nfa.num_symbols(); ++sym) {
          auto has_target = [](std::span<const Nfa::Arc> arcs, StateId x) {
            return std::any_of(
                arcs.begin(), arcs.end(),
                [x](const Nfa::Arc& a) { return a.second == x; });
          };
          const bool fwd_edge = has_target(rr.arcs.On(t, sym), s);
          const bool rev_edge = has_target(rr.rev_arcs.On(s, sym), t);
          EXPECT_EQ(fwd_edge, rev_edge) << regex << " state " << s;
          if (fwd_edge) in_mask |= 1ULL << sym;
        }
      }
      EXPECT_EQ(rr.rev_tape_masks[s][0], in_mask) << regex << " state " << s;
    }

    // Language reversal: Reverse(nfa) accepts exactly the reversed words.
    Nfa rev = Reverse(rr.nfa);
    std::vector<Word> fwd_words = EnumerateWords(rr.nfa, 200, 6);
    std::vector<Word> rev_words = EnumerateWords(rev, 200, 6);
    std::set<Word> reversed;
    for (Word w : fwd_words) {
      std::reverse(w.begin(), w.end());
      reversed.insert(std::move(w));
    }
    EXPECT_EQ(reversed, std::set<Word>(rev_words.begin(), rev_words.end()))
        << regex;
  }
}

// Planner direction choices surface in Explain and in the executed
// operator stats (direction= and meet_checks).
TEST(BidirectionalSearch, PlannerPicksAndReportsDirections) {
  GraphDb g = NamedRandomGraph(24, 72, /*seed=*/7);

  struct Case {
    const char* text;
    const char* direction;
  } cases[] = {
      // Both endpoints constant: meet-in-the-middle.
      {R"(Ans() <- ("n0", p, "n5"), a*(p))", "bidir"},
      // Constant target, free source: one backward search.
      {R"(Ans(x) <- (x, p, "n5"), a*(p))", "bwd"},
      // Constant source, free target: classic forward.
      {R"(Ans(y) <- ("n0", p, y), a*(p))", "fwd"},
  };
  for (const Case& c : cases) {
    auto query = ParseQuery(c.text, g.alphabet());
    ASSERT_TRUE(query.ok()) << c.text;
    auto compiled = CompileQuery(query.value(), g.alphabet().size());
    ASSERT_TRUE(compiled.ok());
    auto index = GraphIndex::Build(g);
    EvalOptions options;
    PhysicalPlan plan =
        PlanQuery(query.value(), *compiled.value(), *index, options);
    std::string described = plan.Describe(query.value());
    EXPECT_NE(described.find(std::string("direction=") + c.direction),
              std::string::npos)
        << c.text << "\n" << described;

    Evaluator evaluator(&g);
    auto result = evaluator.Evaluate(query.value());
    ASSERT_TRUE(result.ok()) << c.text;
    bool found_leaf = false;
    for (const OperatorStats& op : result.value().stats().operators) {
      if (op.direction == c.direction) found_leaf = true;
    }
    EXPECT_TRUE(found_leaf)
        << c.text << ": no operator ran direction=" << c.direction;
  }

  // The bidirectional leaf reports its meet probes.
  auto query = ParseQuery(R"(Ans() <- ("n0", p, "n5"), (a|b)*(p))",
                          g.alphabet());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(&g);
  auto result = evaluator.Evaluate(query.value());
  ASSERT_TRUE(result.ok());
  uint64_t meet_checks = 0;
  for (const OperatorStats& op : result.value().stats().operators) {
    meet_checks += op.meet_checks;
  }
  EXPECT_GT(meet_checks, 0u);
}

// The in-degree-descending permutation used for backward seeding.
TEST(BidirectionalSearch, NodesByInDegreeOrdersBackwardSeeds) {
  GraphDb g = NamedRandomGraph(32, 96, /*seed=*/11);
  auto index = GraphIndex::Build(g);
  const std::vector<NodeId>& order = index->NodesByInDegree();
  ASSERT_EQ(order.size(), static_cast<size_t>(g.num_nodes()));
  std::set<NodeId> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), order.size());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(index->in_degree(order[i - 1]), index->in_degree(order[i]));
  }
}

}  // namespace
}  // namespace ecrpq
