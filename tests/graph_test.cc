// Graph databases, paths, generators and IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>

#include "graph/generators.h"
#include "graph/index.h"
#include "graph/io.h"
#include "graph/path.h"

namespace ecrpq {
namespace {

TEST(GraphDb, BasicConstruction) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  g.AddEdge(a, "x", b);
  g.AddEdge(b, "y", a);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.FindNode("A"), a);
  EXPECT_EQ(g.FindNode("missing"), std::nullopt);
  EXPECT_TRUE(g.HasEdge(a, *g.alphabet().Find("x"), b));
  EXPECT_FALSE(g.HasEdge(a, *g.alphabet().Find("y"), b));
  EXPECT_EQ(g.AddNode("A"), a);  // named nodes are deduplicated
}

TEST(GraphDb, NfaView) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  Symbol x = g.alphabet_ptr()->Intern("x");
  g.AddEdge(a, x, b);
  g.AddEdge(b, x, c);
  Nfa nfa = g.ToNfa({a}, {c});
  EXPECT_TRUE(nfa.Accepts({x, x}));
  EXPECT_FALSE(nfa.Accepts({x}));
}

TEST(Path, LabelsAndValidation) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  Symbol x = g.alphabet_ptr()->Intern("x");
  Symbol y = g.alphabet_ptr()->Intern("y");
  g.AddEdge(a, x, b);
  g.AddEdge(b, y, a);
  Path p(a, {{x, b}, {y, a}, {x, b}});
  EXPECT_TRUE(p.IsValidIn(g));
  EXPECT_EQ(p.Label(), Word({x, y, x}));
  EXPECT_EQ(p.start(), a);
  EXPECT_EQ(p.end(), b);
  EXPECT_EQ(p.length(), 3);
  EXPECT_EQ(p.NodeAt(0), a);
  EXPECT_EQ(p.NodeAt(1), b);
  Path bad(a, {{y, b}});
  EXPECT_FALSE(bad.IsValidIn(g));
  Path empty(b);
  EXPECT_TRUE(empty.IsValidIn(g));
  EXPECT_EQ(empty.Label(), Word{});
  EXPECT_EQ(empty.end(), b);
}

TEST(Path, Enumeration) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  Symbol x = g.alphabet_ptr()->Intern("x");
  g.AddEdge(a, x, b);
  g.AddEdge(b, x, a);
  // Paths from A with length <= 2: A, A-B, A-B-A.
  GraphIndexPtr index = GraphIndex::Build(g);
  std::vector<Path> from_a = EnumeratePathsFrom(*index, a, 2);
  EXPECT_EQ(from_a.size(), 3u);
  // All paths length <= 1: two empty + two edges.
  EXPECT_EQ(EnumerateAllPaths(*index, 1).size(), 4u);
}

TEST(Generators, WordGraphSpellsWord) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Word word = {0, 1, 0};
  GraphDb g = WordGraph(alphabet, word);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  Nfa nfa = g.ToNfa({*g.FindNode("w0")}, {*g.FindNode("w3")});
  EXPECT_TRUE(nfa.Accepts(word));
  EXPECT_FALSE(nfa.Accepts({0, 1}));
}

TEST(Generators, UniversalWordGraphHasAllWords) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  GraphDb g = UniversalWordGraph(alphabet);
  EXPECT_EQ(g.num_nodes(), 4);
  // From every node, every word over Σ labels some path.
  std::vector<Word> words = {{0}, {1, 2}, {0, 0, 1}, {2, 2, 2, 0}};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<NodeId> all;
    for (NodeId w = 0; w < g.num_nodes(); ++w) all.push_back(w);
    Nfa nfa = g.ToNfa({v}, all);
    for (const Word& w : words) {
      EXPECT_TRUE(nfa.Accepts(w)) << "node " << v;
    }
  }
}

TEST(Generators, LayeredGraphShape) {
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  Rng rng(7);
  GraphDb g = LayeredGraph(alphabet, 4, 5, 2, &rng);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 3 * 5 * 2);
  // All edges go to the next layer.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& [label, to] : g.Out(v)) {
      (void)label;
      EXPECT_EQ(to / 5, v / 5 + 1);
    }
  }
}

TEST(Generators, RdfPropertyGraphHierarchy) {
  Rng rng(11);
  std::vector<std::pair<std::string, std::string>> pairs;
  GraphDb g = RdfPropertyGraph(10, 5, 2, &rng, &pairs);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(pairs.size(), 4u);  // forest over 5 properties
  EXPECT_EQ(g.alphabet().size(), 5);
}

TEST(GraphIo, TextRoundTrip) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  g.AddEdge(a, "x", b);
  g.AddEdge(b, "y", a);
  std::string text = GraphToText(g);
  auto parsed = ParseGraphText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().num_nodes(), 2);
  EXPECT_EQ(parsed.value().num_edges(), 2);
  EXPECT_TRUE(parsed.value().HasEdge(*parsed.value().FindNode("A"),
                                     *parsed.value().alphabet().Find("x"),
                                     *parsed.value().FindNode("B")));
}

TEST(GraphDb, EmptyNameAddsAnonymousNode) {
  GraphDb g;
  NodeId a = g.AddNode("");
  NodeId b = g.AddNode("");
  EXPECT_NE(a, b);  // empty names must not dedupe into one node
  EXPECT_EQ(g.FindNode(""), std::nullopt);
}

// GraphDb's open-addressing name table against a std::unordered_map
// reference over 120k random AddNode(name) / FindNode operations. The
// names stress it: empty names, repeats, names past the small-string
// buffer, names that differ only after a '\0', "n<id>" look-alikes of
// anonymous display names. After every insert that brings the name count
// to a power of two (the table has just grown or is about to), every
// name is looked up again. A copy taken midway must keep resolving its
// own names, and grow on its own, whatever the original does later.
TEST(GraphDb, NameTableMatchesUnorderedMap) {
  Rng rng(2024);
  GraphDb g;
  std::unordered_map<std::string, NodeId> ref;
  std::vector<std::string> used;
  auto random_name = [&]() -> std::string {
    switch (rng.Below(7)) {
      case 0:
        return "";
      case 1:
        if (!used.empty()) return rng.Pick(used);
        return "r";
      case 2:
        return "n" + std::to_string(rng.Below(g.num_nodes() + 1));
      case 3: {
        std::string name = "x";
        name += '\0';
        return name + std::to_string(rng.Below(5000));
      }
      case 4:
        return std::string(16 + rng.Below(40), 'a' + rng.Below(3)) +
               std::to_string(rng.Below(100000));
      default:
        return "v" + std::to_string(rng.Below(200000));
    }
  };
  auto expect_all_found = [](const GraphDb& db,
                             const std::unordered_map<std::string, NodeId>&
                                 names) {
    for (const auto& [name, id] : names) {
      ASSERT_EQ(db.FindNode(name), std::optional<NodeId>(id));
      ASSERT_EQ(db.StoredName(id), name);
    }
  };

  std::optional<GraphDb> copy;
  std::unordered_map<std::string, NodeId> copy_ref;
  for (int op = 0; op < 120000; ++op) {
    const std::string name = random_name();
    if (rng.Chance(0.4)) {
      auto it = ref.find(name);
      ASSERT_EQ(g.FindNode(name), it == ref.end()
                                      ? std::nullopt
                                      : std::optional<NodeId>(it->second))
          << "op " << op;
      continue;
    }
    const int before = g.num_nodes();
    const NodeId id = g.AddNode(name);
    if (name.empty()) {
      ASSERT_EQ(id, before);
      ASSERT_EQ(g.StoredName(id), "");
      continue;
    }
    auto [it, inserted] = ref.try_emplace(name, before);
    ASSERT_EQ(id, it->second) << "op " << op;
    ASSERT_EQ(g.num_nodes(), before + (inserted ? 1 : 0));
    if (!inserted) continue;
    used.push_back(name);
    if ((ref.size() & (ref.size() - 1)) == 0) expect_all_found(g, ref);
    if (ref.size() == 4096) {
      copy = g;
      copy_ref = ref;
    }
  }
  ASSERT_GE(ref.size(), 1u << 15);
  expect_all_found(g, ref);
  EXPECT_EQ(g.FindNode(""), std::nullopt);

  // The copy kept its own table: names added to the original later are
  // unknown to it, and it grows independently.
  ASSERT_TRUE(copy.has_value());
  expect_all_found(*copy, copy_ref);
  for (const auto& [name, id] : ref) {
    if (copy_ref.count(name) == 0) {
      ASSERT_EQ(copy->FindNode(name), std::nullopt);
    }
  }
  for (int i = 0; i < 20000; ++i) {
    const std::string name = "copy" + std::to_string(i);
    const NodeId id = copy->AddNode(name);
    copy_ref.emplace(name, id);
    ASSERT_EQ(g.FindNode(name), std::nullopt);
  }
  expect_all_found(*copy, copy_ref);
  expect_all_found(g, ref);
}

// GraphToText → ParseGraphText must preserve node names, the edge
// multiset, and alphabet symbol ids — including symbols no edge carries
// and symbols whose first edge use disagrees with interning order.
TEST(GraphIo, RoundTripPreservesNamesEdgesAndSymbolIds) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});  // "a" stays unused
  GraphDb g(alphabet);
  NodeId ann = g.AddNode("ann");
  NodeId anon = g.AddNode();
  NodeId bob = g.AddNode("bob");
  g.AddEdge(ann, "c", bob);  // first used label is id 2
  g.AddEdge(bob, "b", anon);
  g.AddEdge(ann, "c", bob);  // duplicate edge: multiset, not set

  auto parsed = ParseGraphText(GraphToText(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const GraphDb& h = parsed.value();

  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  ASSERT_EQ(h.alphabet().size(), g.alphabet().size());
  for (Symbol s = 0; s < g.alphabet().size(); ++s) {
    EXPECT_EQ(h.alphabet().Label(s), g.alphabet().Label(s)) << s;
  }
  // Node names survive (anonymous nodes materialize as "n<id>").
  std::multiset<std::string> g_names, h_names;
  for (NodeId v = 0; v < g.num_nodes(); ++v) g_names.insert(g.NodeName(v));
  for (NodeId v = 0; v < h.num_nodes(); ++v) h_names.insert(h.NodeName(v));
  EXPECT_EQ(g_names, h_names);
  // Edge multiset over (from name, symbol id, to name).
  auto edge_multiset = [](const GraphDb& db) {
    std::multiset<std::tuple<std::string, Symbol, std::string>> edges;
    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      for (const auto& [label, to] : db.Out(v)) {
        edges.insert({db.NodeName(v), label, db.NodeName(to)});
      }
    }
    return edges;
  };
  EXPECT_EQ(edge_multiset(g), edge_multiset(h));
}

// A named node that owns an anonymous node's "n<id>" display name must
// not merge with it on re-import.
TEST(GraphIo, RoundTripAnonymousNameCollision) {
  GraphDb g;
  NodeId anon = g.AddNode();           // displays as "n0"
  NodeId named = g.AddNode("n0");      // literally named "n0"
  g.AddEdge(anon, "x", named);
  auto parsed = ParseGraphText(GraphToText(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_nodes(), 2);
  EXPECT_EQ(parsed.value().num_edges(), 1);
  // The named node keeps its name; the anonymous one was disambiguated.
  ASSERT_TRUE(parsed.value().FindNode("n0").has_value());
  ASSERT_TRUE(parsed.value().FindNode("n0_").has_value());
  NodeId renamed = *parsed.value().FindNode("n0_");
  EXPECT_TRUE(parsed.value().HasEdge(
      renamed, *parsed.value().alphabet().Find("x"),
      *parsed.value().FindNode("n0")));
}

// The catalog-plus-snapshot export (a Database's graph() and
// graph_index()) writes the same graph as the export of the GraphDb the
// snapshot was built from.
TEST(GraphIo, CatalogAndSnapshotTextMatchesGraphText) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  GraphDb g(alphabet);
  NodeId ann = g.AddNode("ann");
  NodeId anon = g.AddNode();
  NodeId bob = g.AddNode("bob");
  g.AddNode("n1");  // owns the anonymous node's display name
  g.AddEdge(bob, "b", anon);
  g.AddEdge(ann, "c", bob);
  g.AddEdge(ann, "a", anon);
  g.AddEdge(ann, "c", bob);

  GraphDb catalog = g;
  GraphIndexPtr snapshot = GraphIndex::Build(catalog);
  (void)catalog.TakeAdjacency();
  auto from_catalog = ParseGraphText(GraphToText(catalog, *snapshot));
  auto from_graph = ParseGraphText(GraphToText(g));
  ASSERT_TRUE(from_catalog.ok()) << from_catalog.status().ToString();
  ASSERT_TRUE(from_graph.ok()) << from_graph.status().ToString();
  const GraphDb& h = from_catalog.value();
  const GraphDb& expected = from_graph.value();
  ASSERT_EQ(h.num_nodes(), expected.num_nodes());
  ASSERT_EQ(h.num_edges(), expected.num_edges());
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    EXPECT_EQ(h.NodeName(v), expected.NodeName(v)) << v;
    std::vector<GraphDb::Arc> out(h.Out(v).begin(), h.Out(v).end());
    std::vector<GraphDb::Arc> want(expected.Out(v).begin(),
                                   expected.Out(v).end());
    std::sort(out.begin(), out.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(out, want) << h.NodeName(v);
  }
}

// A catalog has given up its out-lists: reading edges through it aborts
// in every build type instead of answering as a graph without edges.
TEST(GraphDbDeathTest, CatalogRefusesEdgeAccess) {
  GraphDb g;
  NodeId a = g.AddNode("a");
  g.AddEdge(a, "x", a);
  (void)g.TakeAdjacency();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DEATH((void)g.Out(a), "catalog without out-lists");
  EXPECT_DEATH((void)g.HasEdge(a, 0, a), "catalog without out-lists");
  EXPECT_DEATH((void)g.ToNfaAllStates(), "catalog without out-lists");
  EXPECT_DEATH(g.AddEdge(a, 0, a), "catalog without out-lists");
}

TEST(GraphIo, ParseErrorsAndComments) {
  EXPECT_TRUE(ParseGraphText("# comment only\n").ok());
  EXPECT_FALSE(ParseGraphText("node\n").ok());
  EXPECT_FALSE(ParseGraphText("edge A x\n").ok());
  EXPECT_FALSE(ParseGraphText("frobnicate A\n").ok());
  auto g = ParseGraphText("edge A x B  # auto-creates nodes\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 2);
}

TEST(GraphIo, DotExport) {
  GraphDb g;
  NodeId a = g.AddNode("A");
  g.AddEdge(a, "loop", a);
  std::string dot = GraphToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("loop"), std::string::npos);
}

}  // namespace
}  // namespace ecrpq
