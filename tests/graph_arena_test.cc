// GraphDb's flat arc and name arenas against ReferenceGraph, the
// vector-of-vectors builder they replace: random sequences of node, name
// and edge operations, copies, and catalog round trips (TakeAdjacency,
// CountEdges, RestoreAdjacency) must leave both graphs equal after every
// step, and the arena's layout (room left in rows, places rows moved
// away from) must never show in a snapshot or a checkpoint.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/index.h"
#include "reference_graph.h"
#include "snapshot_compare.h"
#include "util/random.h"
#include "wal/wal_format.h"

namespace ecrpq {
namespace {

void ExpectSameGraph(const GraphDb& g, const ReferenceGraph& ref,
                     const std::vector<std::string>& probes) {
  ASSERT_EQ(g.num_nodes(), ref.num_nodes());
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  ASSERT_EQ(g.version(), ref.version());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(g.StoredName(v), ref.StoredName(v)) << "node " << v;
    ASSERT_EQ(g.NodeName(v), ref.NodeName(v)) << "node " << v;
    if (g.has_adjacency()) {
      ASSERT_EQ(ToVec(g.Out(v)), ref.Out(v)) << "node " << v;
    }
  }
  for (const std::string& name : probes) {
    ASSERT_EQ(g.FindNode(name), ref.FindNode(name)) << name;
  }
}

// The snapshot of `g` equals a Build of the same graph laid out exactly
// (its version counts different steps, so only the ops-counted version is
// compared, against the reference's), and the checkpoint equals the
// reference's one-pass image.
void ExpectSameImages(const GraphDb& g, const ReferenceGraph& ref) {
  GraphDb exact(g.alphabet_ptr());
  std::vector<Edge> edges;
  for (NodeId v = 0; v < ref.num_nodes(); ++v) {
    exact.AddNode(ref.StoredName(v));
    for (const auto& [label, to] : ref.Out(v)) edges.push_back({v, label, to});
  }
  exact.AddEdges(edges);
  ASSERT_EQ(exact.arena_arcs(), static_cast<size_t>(ref.num_edges()));
  const GraphIndexPtr snapshot = GraphIndex::Build(g);
  ASSERT_EQ(snapshot->version(), ref.version());
  CheckSameView(GraphIndex::Build(exact), snapshot, /*same_version=*/false);
  ASSERT_EQ(EncodeCheckpoint(g, *snapshot),
            ReferenceCheckpoint(ref, /*sorted_rows=*/true));
}

// Gives a catalog its rows back from the reference's out-lists.
void RestoreFrom(const ReferenceGraph& ref, GraphDb* g) {
  const std::vector<GraphDb::Arc>* row = nullptr;
  size_t k = 0;
  g->RestoreAdjacency(
      [&](NodeId v) {
        row = &ref.Out(v);
        k = 0;
        return static_cast<int>(row->size());
      },
      [&] { return (*row)[k++]; });
}

TEST(GraphArena, RandomOperationsMatchReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
    GraphDb g(alphabet);
    ReferenceGraph ref(alphabet);
    std::vector<std::string> probes = {"", "n0", "missing"};
    auto random_node = [&] {
      return static_cast<NodeId>(rng.Below(ref.num_nodes()));
    };
    auto random_label = [&] {
      return static_cast<Symbol>(rng.Below(alphabet->size()));
    };
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = ref.num_nodes() == 0 ? rng.Below(3) : rng.Below(11);
      switch (op) {
        case 0:
          ASSERT_EQ(g.AddNode(), ref.AddNode());
          break;
        case 1: {
          const int count = static_cast<int>(rng.Below(4));
          ASSERT_EQ(g.AddNodes(count), ref.AddNodes(count));
          break;
        }
        case 2: {
          // Repeated names return the existing node, "" is anonymous, and
          // "n<k>" looks like an anonymous node's display name.
          std::string name;
          if (rng.Chance(0.1)) {
            name = "n";
            name += std::to_string(rng.Below(10));
          } else if (rng.Chance(0.9)) {
            name = "v";
            name += std::to_string(rng.Below(80));
          }
          probes.push_back(name);
          ASSERT_EQ(g.AddNode(name), ref.AddNode(name));
          break;
        }
        case 3:
        case 4: {
          const NodeId from = random_node(), to = random_node();
          if (rng.Chance(0.2)) {
            // A label by name, sometimes a new one.
            const std::string label = "l" + std::to_string(rng.Below(5));
            g.AddEdge(from, label, to);
            ref.AddEdge(from, *alphabet->Find(label), to);
          } else {
            const Symbol label = random_label();
            g.AddEdge(from, label, to);
            ref.AddEdge(from, label, to);
          }
          break;
        }
        case 5: {
          std::vector<Edge> batch(rng.Below(20));
          for (Edge& e : batch) {
            e = {random_node(), random_label(), random_node()};
          }
          g.AddEdges(batch);
          ref.AddEdges(batch);
          break;
        }
        case 6:
        case 7: {
          // An existing edge when there is one at the picked node, else
          // (usually) a missing one.
          const NodeId from = random_node();
          GraphDb::Arc arc(random_label(), random_node());
          if (!ref.Out(from).empty() && rng.Chance(0.8)) {
            arc = ref.Out(from)[rng.Below(ref.Out(from).size())];
          }
          ASSERT_EQ(g.RemoveEdge(from, arc.first, arc.second),
                    ref.RemoveEdge(from, arc.first, arc.second));
          break;
        }
        case 8: {
          // A copy is laid out exactly.
          GraphDb copy(g);
          EXPECT_EQ(copy.arena_arcs(), static_cast<size_t>(ref.num_edges()));
          if (rng.Chance(0.5)) {
            g = std::move(copy);
          } else {
            GraphDb assigned;
            assigned = copy;
            g = std::move(assigned);
          }
          break;
        }
        case 9: {
          // The Database round trip: a catalog adds nodes and counts the
          // edges kept elsewhere, then gets its rows back.
          g.TakeAdjacency();
          ASSERT_FALSE(g.has_adjacency());
          ASSERT_EQ(g.arena_arcs(), 0u);
          if (rng.Chance(0.5)) {
            ASSERT_EQ(g.AddNode(), ref.AddNode());
          }
          int added = 0, removed = 0;
          for (int i = static_cast<int>(rng.Below(4)); i > 0; --i) {
            ref.AddEdge(random_node(), random_label(), random_node());
            ++added;
          }
          const NodeId from = random_node();
          if (!ref.Out(from).empty()) {
            const GraphDb::Arc arc = ref.Out(from).front();
            removed += ref.RemoveEdge(from, arc.first, arc.second);
          }
          g.CountEdges(added, removed);
          ExpectSameGraph(g, ref, probes);
          RestoreFrom(ref, &g);
          EXPECT_EQ(g.arena_arcs(), static_cast<size_t>(ref.num_edges()));
          break;
        }
        case 10:
          ExpectSameImages(g, ref);
          break;
      }
      ExpectSameGraph(g, ref, probes);
      if (HasFatalFailure()) return;
    }
    ExpectSameImages(g, ref);
  }
}

// Bulk construction, copies and restored catalogs hold exactly their
// edges; a graph grown one AddEdge at a time at random sources holds about
// twice as many (1.5x at average degree 1, 2.1x at 3, 2.6x at 10). A row
// that grows in place adds no dead arcs, and one that moves leaves its old
// room behind (all its earlier rooms sum to less than its current one) and
// gets at most twice its arcs as room, so no such build holds 4x.
TEST(GraphArena, IncrementalBuildHoldsAboutTwiceItsArcs) {
  for (int degree : {1, 3, 10}) {
    SCOPED_TRACE("average degree " + std::to_string(degree));
    constexpr int kNodes = 2000;
    Rng rng(static_cast<uint64_t>(degree));
    GraphDb g;
    g.AddNodes(kNodes);
    std::vector<Edge> edges;
    for (int i = 0; i < degree * kNodes; ++i) {
      const Edge e = {static_cast<NodeId>(rng.Below(kNodes)), 0,
                      static_cast<NodeId>(rng.Below(kNodes))};
      g.AddEdge(e.from, "a", e.to);
      edges.push_back(e);
    }
    const double ratio = static_cast<double>(g.arena_arcs()) / g.num_edges();
    EXPECT_LE(ratio, degree <= 3 ? 2.25 : 2.75);
    EXPECT_LT(g.arena_arcs(), 4 * static_cast<size_t>(g.num_edges()));

    const GraphDb bulk = GraphDb::FromEdges(g.alphabet_ptr(), kNodes, edges);
    EXPECT_EQ(bulk.arena_arcs(), edges.size());
    EXPECT_EQ(GraphDb(g).arena_arcs(), edges.size());
    for (NodeId v = 0; v < kNodes; ++v) {
      ASSERT_EQ(ToVec(bulk.Out(v)), ToVec(g.Out(v))) << "node " << v;
    }
  }
  // Rows filled one node after another grow in place: no room is left.
  GraphDb sequential;
  sequential.AddNodes(100);
  for (NodeId v = 0; v < 100; ++v) {
    for (int k = 0; k < v % 7; ++k) sequential.AddEdge(v, "a", k);
  }
  EXPECT_EQ(sequential.arena_arcs(),
            static_cast<size_t>(sequential.num_edges()));
}

}  // namespace
}  // namespace ecrpq
