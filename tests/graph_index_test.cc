// GraphIndex correctness: the CSR label slices must be exactly the
// GraphDb adjacency (as multisets, per node and label; the in-side is its
// transpose), Build must reproduce the sort-based reference construction
// byte for byte, and the indexed engines must match brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <vector>

#include "core/eval_bruteforce.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "core/reachability.h"
#include "graph/generators.h"
#include "graph/index.h"
#include "query/parser.h"

namespace ecrpq {
namespace {

// Per-(node, label) target multiset straight from the GraphDb; the
// in-side transposes the out-lists.
std::map<std::pair<NodeId, Symbol>, std::vector<NodeId>> Reference(
    const GraphDb& g, bool out_side) {
  std::map<std::pair<NodeId, Symbol>, std::vector<NodeId>> ref;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& [label, other] : g.Out(v)) {
      if (out_side) {
        ref[{v, label}].push_back(other);
      } else {
        ref[{other, label}].push_back(v);
      }
    }
  }
  for (auto& [key, targets] : ref) std::sort(targets.begin(), targets.end());
  return ref;
}

void CheckIndexMatchesGraph(const GraphDb& g) {
  auto index = GraphIndex::Build(g);
  ASSERT_EQ(index->num_nodes(), g.num_nodes());
  ASSERT_EQ(index->num_edges(), g.num_edges());
  ASSERT_EQ(index->num_labels(), g.alphabet().size());

  for (bool out_side : {true, false}) {
    auto ref = Reference(g, out_side);
    int64_t covered = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (Symbol a = 0; a < g.alphabet().size(); ++a) {
        auto slice = out_side ? index->Out(v, a) : index->In(v, a);
        std::vector<NodeId> got(slice.begin(), slice.end());
        auto it = ref.find({v, a});
        std::vector<NodeId> want =
            (it == ref.end()) ? std::vector<NodeId>{} : it->second;
        EXPECT_EQ(got, want) << "node " << v << " label " << a << " out="
                             << out_side;
        covered += static_cast<int64_t>(got.size());
        // The label-presence mask agrees with the slice (exact: test
        // alphabets are far below 63 labels).
        uint64_t mask = out_side ? index->OutLabelMask(v)
                                 : index->InLabelMask(v);
        EXPECT_EQ((mask >> a) & 1, got.empty() ? 0u : 1u);
      }
      // Full per-node rows are label-sorted and complete.
      auto labels = out_side ? index->OutLabels(v) : index->InLabels(v);
      EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
      EXPECT_EQ(static_cast<int>(labels.size()),
                out_side ? index->out_degree(v) : index->in_degree(v));
    }
    // Every edge is in exactly one slice.
    EXPECT_EQ(covered, g.num_edges());
  }

  // Label counts sum to the edge count; permutation is a degree-sorted
  // bijection on nodes.
  int64_t total = 0;
  for (Symbol a = 0; a < g.alphabet().size(); ++a) {
    total += index->LabelCount(a);
  }
  if (g.alphabet().size() > 0) EXPECT_EQ(total, g.num_edges());
  std::vector<NodeId> perm = index->NodesByDegree();
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_GE(index->out_degree(perm[i - 1]) + index->in_degree(perm[i - 1]),
              index->out_degree(perm[i]) + index->in_degree(perm[i]));
  }
  std::sort(perm.begin(), perm.end());
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(perm[i], static_cast<NodeId>(i));
  }
}

class IndexVsGraphDb : public ::testing::TestWithParam<int> {};

TEST_P(IndexVsGraphDb, RandomGraphSlices) {
  Rng rng(GetParam());
  auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
  GraphDb g = RandomGraph(alphabet, 3 + GetParam() % 17,
                          2 * (3 + GetParam() % 29), &rng);
  CheckIndexMatchesGraph(g);
}

TEST_P(IndexVsGraphDb, LayeredGraphSlices) {
  Rng rng(GetParam() + 1000);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = LayeredGraph(alphabet, 2 + GetParam() % 5, 1 + GetParam() % 4,
                           1 + GetParam() % 3, &rng);
  CheckIndexMatchesGraph(g);
}

INSTANTIATE_TEST_SUITE_P(Seeds100, IndexVsGraphDb, ::testing::Range(0, 100));

TEST(GraphIndex, EmptyAndEdgelessGraphs) {
  GraphDb empty;
  CheckIndexMatchesGraph(empty);
  GraphDb isolated;
  isolated.AddNode("x");
  isolated.AddNode("y");
  CheckIndexMatchesGraph(isolated);
}

// The sort-based construction, recomputed independently of Build: each
// row (the in-side from the transposed out-lists) sorted as packed
// (label << 32 | other) keys, std::stable_sort for both degree orders.
struct SortedReference {
  std::vector<std::vector<uint64_t>> out, in;
  std::vector<uint64_t> out_masks, in_masks;
  std::vector<int64_t> counts, sources, targets;
  std::vector<NodeId> by_degree, by_in_degree;
};

SortedReference BuildSortedReference(const GraphDb& g) {
  const int n = g.num_nodes();
  const int labels = std::max(g.alphabet().size(), 1);
  SortedReference ref;
  ref.out.resize(n);
  ref.in.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [label, to] : g.Out(v)) {
      ref.out[v].push_back(static_cast<uint64_t>(label) << 32 |
                           static_cast<uint32_t>(to));
      ref.in[to].push_back(static_cast<uint64_t>(label) << 32 |
                           static_cast<uint32_t>(v));
    }
  }
  ref.counts.assign(labels, 0);
  ref.sources.assign(labels, 0);
  ref.targets.assign(labels, 0);
  auto finish_side = [&](std::vector<std::vector<uint64_t>>& rows,
                         std::vector<uint64_t>* masks,
                         std::vector<int64_t>* endpoints) {
    masks->assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      std::sort(rows[v].begin(), rows[v].end());
      std::set<Symbol> distinct;
      for (uint64_t key : rows[v]) {
        const Symbol label = static_cast<Symbol>(key >> 32);
        (*masks)[v] |= 1ULL << std::min<Symbol>(label, 63);
        distinct.insert(label);
      }
      for (Symbol label : distinct) ++(*endpoints)[label];
    }
  };
  finish_side(ref.out, &ref.out_masks, &ref.sources);
  finish_side(ref.in, &ref.in_masks, &ref.targets);
  for (NodeId v = 0; v < n; ++v) {
    for (uint64_t key : ref.out[v]) ++ref.counts[key >> 32];
  }
  ref.by_degree.resize(n);
  std::iota(ref.by_degree.begin(), ref.by_degree.end(), 0);
  std::stable_sort(ref.by_degree.begin(), ref.by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return ref.out[a].size() + ref.in[a].size() >
                            ref.out[b].size() + ref.in[b].size();
                   });
  ref.by_in_degree.resize(n);
  std::iota(ref.by_in_degree.begin(), ref.by_in_degree.end(), 0);
  std::stable_sort(ref.by_in_degree.begin(), ref.by_in_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return ref.in[a].size() > ref.in[b].size();
                   });
  return ref;
}

void ExpectMatchesSortedReference(const GraphIndex& index,
                                  const SortedReference& ref) {
  auto row_keys = [](std::span<const Symbol> labels,
                     std::span<const NodeId> others) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < labels.size(); ++i) {
      keys.push_back(static_cast<uint64_t>(labels[i]) << 32 |
                     static_cast<uint32_t>(others[i]));
    }
    return keys;
  };
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    ASSERT_EQ(row_keys(index.OutLabels(v), index.OutTargets(v)), ref.out[v])
        << "out row " << v;
    ASSERT_EQ(row_keys(index.InLabels(v), index.InSources(v)), ref.in[v])
        << "in row " << v;
    ASSERT_EQ(index.OutLabelMask(v), ref.out_masks[v]) << v;
    ASSERT_EQ(index.InLabelMask(v), ref.in_masks[v]) << v;
  }
  for (Symbol label = 0; label < index.num_labels(); ++label) {
    EXPECT_EQ(index.LabelCount(label), ref.counts[label]) << label;
    EXPECT_EQ(index.LabelSourceCount(label), ref.sources[label]) << label;
    EXPECT_EQ(index.LabelTargetCount(label), ref.targets[label]) << label;
  }
  EXPECT_EQ(index.NodesByDegree(), ref.by_degree);
  EXPECT_EQ(index.NodesByInDegree(), ref.by_in_degree);
}

// A random multigraph with every shape the counting passes must keep in
// order: duplicate edges, self-loops, three hubs (heavy rows and degree
// ties at the top of the orders), an isolated tail of nodes, edges added
// one by one in random order (unsorted out-lists), and a few removals.
GraphDb RandomMultigraph(uint64_t seed, int num_labels, int num_nodes,
                         int num_edges) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int l = 0; l < num_labels; ++l) names.push_back("l" + std::to_string(l));
  GraphDb g(Alphabet::FromLabels(names));
  g.AddNodes(num_nodes);
  const int active = std::max(1, num_nodes - num_nodes / 8);
  const int hubs = std::min(3, active);
  std::vector<Edge> edges;
  for (int i = 0; i < num_edges; ++i) {
    const uint64_t kind = rng.Below(10);
    if (kind == 0 && !edges.empty()) {
      const Edge duplicate = rng.Pick(edges);
      edges.push_back(duplicate);
      continue;
    }
    Edge e{static_cast<NodeId>(rng.Below(active)),
           static_cast<Symbol>(rng.Below(num_labels)),
           static_cast<NodeId>(rng.Below(active))};
    if (kind == 1) e.from = static_cast<NodeId>(rng.Below(hubs));
    if (kind == 2) e.to = static_cast<NodeId>(rng.Below(hubs));
    if (kind == 3) e.to = e.from;  // self-loop
    edges.push_back(e);
  }
  if (seed % 2 == 0) {
    g.AddEdges(edges);
  } else {
    for (const Edge& e : edges) g.AddEdge(e.from, e.label, e.to);
  }
  for (int i = 0; i < num_edges / 20; ++i) {
    const Edge& e = rng.Pick(edges);
    g.RemoveEdge(e.from, e.label, e.to);
  }
  return g;
}

TEST(GraphIndex, BuildMatchesSortedReference) {
  uint64_t seed = 1;
  for (int num_labels : {1, 3, 8, 70}) {
    for (int num_nodes : {1, 2, 17, 300}) {
      for (int num_edges : {0, 1, 50, 3000}) {
        SCOPED_TRACE(::testing::Message()
                     << "labels " << num_labels << " nodes " << num_nodes
                     << " edges " << num_edges << " seed " << seed);
        GraphDb g = RandomMultigraph(seed++, num_labels, num_nodes, num_edges);
        const SortedReference ref = BuildSortedReference(g);
        for (int lanes : {1, 4}) {
          ExpectMatchesSortedReference(*GraphIndex::Build(g, lanes), ref);
        }
      }
    }
  }
  GraphDb empty;
  ExpectMatchesSortedReference(*GraphIndex::Build(empty),
                               BuildSortedReference(empty));
}

// Above the auto-parallel threshold, so 4 lanes really split the out-side
// fill.
TEST(GraphIndex, BuildMatchesSortedReferenceOnLargeGraph) {
  for (int num_labels : {3, 70}) {
    SCOPED_TRACE(num_labels);
    GraphDb g = RandomMultigraph(99 + num_labels, num_labels, 40000, 600000);
    const SortedReference ref = BuildSortedReference(g);
    for (int lanes : {1, 4}) {
      ExpectMatchesSortedReference(*GraphIndex::Build(g, lanes), ref);
    }
  }
}

// The lane-parallel in-side inversion starts at kParallelBuildMinEdges:
// one edge below it every lane count runs the passes as one part, one
// batch above it the lanes split the counting, bucketing and dealing.
// Either way every lane count, including more lanes than the pool runs,
// must give the sorted reference. Hubs, isolated nodes (empty rows) and labels
// from 64 on (the shared mask bit) are all present.
TEST(GraphIndex, BuildAtEveryLaneCountAroundParallelThreshold) {
  constexpr int kLabels = 70;
  for (int target : {GraphIndex::kParallelBuildMinEdges - 1,
                     GraphIndex::kParallelBuildMinEdges + 4099}) {
    SCOPED_TRACE(target);
    GraphDb g = RandomMultigraph(7 + target, kLabels, 30000, target);
    // Top up to exactly `target` edges, all out of and into hub 0 on the
    // highest labels.
    for (int i = 0; g.num_edges() < target; ++i) {
      const Symbol label = static_cast<Symbol>(kLabels - 1 - i % 6);
      if (i % 2 == 0) {
        g.AddEdge(0, label, static_cast<NodeId>(i % 20000));
      } else {
        g.AddEdge(static_cast<NodeId>(i % 20000), label, 0);
      }
    }
    ASSERT_EQ(g.num_edges(), target);
    const SortedReference ref = BuildSortedReference(g);
    for (int lanes : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(lanes);
      ExpectMatchesSortedReference(*GraphIndex::Build(g, lanes), ref);
    }
  }
}

// Engine equivalence: indexed evaluation returns exactly the same answer
// sets as brute force on small graphs.
const char* kEquivalenceQueries[] = {
    "Ans(x, y) <- (x, p, y), a*(p)",
    "Ans(x, z) <- (x, p, y), (y, q, z), a+(p), b*(q)",
    "Ans(x, y) <- (x, p, z), (z, q, y), eq(p, q)",
    "Ans(x, y) <- (x, p, y), (x, q, y), prefix(p, q)",
    "Ans(x, w) <- (x, p, y), (z, p, w), a*(p)",
};

class EngineIndexEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineIndexEquivalence, ProductMatchesBruteForce) {
  Rng rng(GetParam());
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = LayeredGraph(alphabet, 4, 2, 2, &rng);
  for (const char* text : kEquivalenceQueries) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text, g.alphabet());
    ASSERT_TRUE(query.ok()) << query.status().ToString();

    EvalOptions options;
    options.build_path_answers = false;
    options.bruteforce_max_len = 4;

    auto with_index = EvaluateProduct(g, query.value(), options);
    auto brute = EvaluateBruteForce(g, query.value(), options);
    ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();
    EXPECT_EQ(with_index.value().tuples(), brute.value().tuples());
  }
}

// The all-scan plan's per-atom scans against the monolithic product
// (Thm 5.1): one search over both atoms at once, no joins.
TEST_P(EngineIndexEquivalence, CrpqMatchesMonolithicProduct) {
  Rng rng(GetParam() + 31);
  auto alphabet = Alphabet::FromLabels({"a", "b"});
  GraphDb g = RandomGraph(alphabet, 8, 20, &rng);
  auto query = ParseQuery("Ans(x, z) <- (x, p, y), (y, q, z), a+(p), b*(q)",
                          g.alphabet());
  ASSERT_TRUE(query.ok());

  EvalOptions options;
  options.build_path_answers = false;
  EvalOptions monolithic = options;
  monolithic.use_components = false;

  auto crpq = EvaluateProduct(g, query.value(), options);
  auto product = EvaluateProduct(g, query.value(), monolithic);
  ASSERT_TRUE(crpq.ok()) << crpq.status().ToString();
  ASSERT_TRUE(product.ok()) << product.status().ToString();
  EXPECT_EQ(crpq.value().tuples(), product.value().tuples());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineIndexEquivalence,
                         ::testing::Range(0, 10));

// The all-pairs forward scan of the intersection of `languages`.
RowBuffer ReachabilityPairs(
    const GraphDb& g, const std::vector<const RegularRelation*>& languages,
    const GraphIndex& index) {
  return ReachabilityPairsDirected(
      g, BuildScanLanguage(g.alphabet().size(), languages), index,
      /*sources=*/nullptr, /*targets=*/nullptr, SearchDirection::kForward,
      /*scan_stats=*/nullptr, /*meet_checks=*/nullptr, /*num_threads=*/1,
      /*cancel=*/nullptr);
}

// ReachabilityPairs (the CRPQ building block) under Σ* is plain
// reachability: row for row, in (source, target) order, what a BFS over
// the GraphDb out-lists finds — empty paths included.
TEST(GraphIndex, ReachabilityPairsMatchOutListBfs) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
    GraphDb g = RandomGraph(alphabet, 10, 30, &rng);
    RowBuffer want(2);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      std::set<NodeId> seen = {s};
      std::queue<NodeId> work;
      work.push(s);
      while (!work.empty()) {
        const NodeId v = work.front();
        work.pop();
        for (const auto& [label, to] : g.Out(v)) {
          if (seen.insert(to).second) work.push(to);
        }
      }
      for (NodeId t : seen) want.push_back(std::vector<NodeId>{s, t});
    }
    auto index = GraphIndex::Build(g);
    EXPECT_TRUE(ReachabilityPairs(g, {}, *index) == want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ecrpq
