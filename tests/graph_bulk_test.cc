// Bulk graph construction equivalence: the size-then-fill paths
// (GraphDb::FromEdges / AddEdges, the edge-list format of graph/io.h) and
// the parallel CSR index build must be indistinguishable from their
// incremental counterparts — same adjacency, same per-node order, same
// index contents — at generator scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "graph/io.h"
#include "util/random.h"

namespace ecrpq {
namespace {

std::vector<Edge> RandomEdges(int num_nodes, int num_edges, int num_labels,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (int i = 0; i < num_edges; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Below(num_nodes)),
                     static_cast<Symbol>(rng.Below(num_labels)),
                     static_cast<NodeId>(rng.Below(num_nodes))});
  }
  return edges;
}

// GraphDb stores out-lists only, so equal out-lists (order included) mean
// equal edge multisets.
void ExpectSameAdjacency(const GraphDb& a, const GraphDb& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const std::vector<GraphDb::Arc> a_out(a.Out(v).begin(), a.Out(v).end());
    const std::vector<GraphDb::Arc> b_out(b.Out(v).begin(), b.Out(v).end());
    ASSERT_EQ(a_out, b_out) << "out-adjacency of node " << v;
  }
}

void ExpectIndexesEqual(const GraphIndex& a, const GraphIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_labels(), b.num_labels());
  auto same_span = [](auto lhs, auto rhs) {
    return std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
  };
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << v;
    ASSERT_EQ(a.in_degree(v), b.in_degree(v)) << v;
    ASSERT_TRUE(same_span(a.OutLabels(v), b.OutLabels(v))) << v;
    ASSERT_TRUE(same_span(a.OutTargets(v), b.OutTargets(v))) << v;
    ASSERT_TRUE(same_span(a.InLabels(v), b.InLabels(v))) << v;
    ASSERT_TRUE(same_span(a.InSources(v), b.InSources(v))) << v;
    ASSERT_EQ(a.OutLabelMask(v), b.OutLabelMask(v)) << v;
    ASSERT_EQ(a.InLabelMask(v), b.InLabelMask(v)) << v;
  }
  for (Symbol label = 0; label < a.num_labels(); ++label) {
    EXPECT_EQ(a.LabelCount(label), b.LabelCount(label)) << label;
    EXPECT_EQ(a.LabelSourceCount(label), b.LabelSourceCount(label)) << label;
    EXPECT_EQ(a.LabelTargetCount(label), b.LabelTargetCount(label)) << label;
  }
  EXPECT_EQ(a.NodesByDegree(), b.NodesByDegree());
  EXPECT_EQ(a.NodesByInDegree(), b.NodesByInDegree());
}

// FromEdges / AddEdges carry a documented contract: equivalent to calling
// AddEdge per element in order — same node ids, same per-node adjacency
// order — just without the per-edge reallocation churn.
TEST(GraphBulk, BulkConstructionMatchesIncremental) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  constexpr int kNodes = 2000;
  constexpr int kEdges = 12000;
  std::vector<Edge> edges = RandomEdges(kNodes, kEdges, 4, /*seed=*/11);

  GraphDb bulk = GraphDb::FromEdges(alphabet, kNodes, edges);

  GraphDb incremental(alphabet);
  for (int i = 0; i < kNodes; ++i) incremental.AddNode();
  for (const Edge& e : edges) incremental.AddEdge(e.from, e.label, e.to);

  GraphDb batched(alphabet);
  batched.AddNodes(kNodes);
  batched.AddEdges(edges);

  ExpectSameAdjacency(bulk, incremental);
  ExpectSameAdjacency(batched, incremental);
}

// GraphToEdgeListText -> ParseEdgeListText round-trips node count, symbol
// ids, and exact per-node edge order on a generator-scale graph.
TEST(GraphBulk, EdgeListRoundTrip) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  Rng rng(7);
  GraphDb g = PowerLawGraph(alphabet, 5000, 30000, &rng);
  std::string text = GraphToEdgeListText(g);
  auto parsed = ParseEdgeListText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().alphabet().size(), g.alphabet().size());
  ExpectSameAdjacency(g, parsed.value());
}

// The header's declared node count preserves trailing isolated nodes,
// which no edge line would otherwise mention.
TEST(GraphBulk, EdgeListPreservesIsolatedNodes) {
  auto alphabet = Alphabet::FromLabels({"a"});
  GraphDb g = GraphDb::FromEdges(alphabet, 10, {{0, 0, 1}});
  auto parsed = ParseEdgeListText(GraphToEdgeListText(g));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_nodes(), 10);
  EXPECT_EQ(parsed.value().num_edges(), 1);
}

// A forged header edge count is checked against the bytes that follow
// before anything is reserved: INT32_MAX declared edges would otherwise
// reserve ~24 GB ahead of the first edge line.
TEST(GraphBulk, EdgeListEdgeCountBoundedByInputSize) {
  const std::string text = "ecrpq-edgelist 2 2147483647 1\na\n0 0 1\n";
  auto parsed = ParseEdgeListText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("bytes remain"),
            std::string::npos)
      << parsed.status().ToString();
  // The bound is tight enough for the densest valid input: six bytes per
  // edge, no trailing newline.
  auto dense = ParseEdgeListText("ecrpq-edgelist 2 2 1 a 0 0 1 1 0 0");
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_EQ(dense.value().num_edges(), 2);
}

// The parallel CSR fill writes disjoint per-node slices, so the built
// index must match the serial build exactly — checked on a graph big
// enough (600k edges) to cross the auto-parallel threshold, so the
// argument-less Build really exercises the multi-lane fill.
TEST(GraphBulk, IndexBuildParallelMatchesSerialOnLargeGraph) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  Rng rng(42);
  GraphDb g = PowerLawGraph(alphabet, 100000, 600000, &rng);
  auto serial = GraphIndex::Build(g, /*num_threads=*/1);
  auto parallel = GraphIndex::Build(g, /*num_threads=*/8);
  auto automatic = GraphIndex::Build(g);
  ExpectIndexesEqual(*serial, *parallel);
  ExpectIndexesEqual(*serial, *automatic);
}

// A bulk-built graph indexes identically to its per-edge incremental
// twin: the CSR sort normalizes whatever per-node order the construction
// path produced.
TEST(GraphBulk, IndexOfBulkGraphMatchesIncrementalGraph) {
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  constexpr int kNodes = 3000;
  constexpr int kEdges = 18000;
  std::vector<Edge> edges = RandomEdges(kNodes, kEdges, 3, /*seed=*/23);

  GraphDb bulk = GraphDb::FromEdges(alphabet, kNodes, edges);
  GraphDb incremental(alphabet);
  for (int i = 0; i < kNodes; ++i) incremental.AddNode();
  for (const Edge& e : edges) incremental.AddEdge(e.from, e.label, e.to);

  ExpectIndexesEqual(*GraphIndex::Build(bulk, /*num_threads=*/1),
                     *GraphIndex::Build(incremental, /*num_threads=*/1));
}

}  // namespace
}  // namespace ecrpq
