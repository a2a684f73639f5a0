// Delta-snapshot semantics: a GraphIndex::ApplyDelta chain must present
// the exact logical view a from-scratch Build of the mutated graph does —
// rows, masks, degrees, label statistics, degree permutations, engine
// results, and engine counters, byte for byte — while sharing the base
// arrays (O(delta) writes). Plus the Database-level write path: snapshot
// pinning, single-flight rebuilds, plan-cache survival, threshold and
// background compaction, and snapshot-keyed result-cache invalidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "core/eval_product.h"
#include "core/evaluator.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "snapshot_compare.h"
#include "util/random.h"

namespace ecrpq {
namespace {

// One random mutation batch applied to `g`, returned in index terms.
// Mixes adds between existing nodes, edges on freshly created nodes,
// occasional brand-new labels, removals of existing edges (including
// ones added by this very batch), forced duplicates, and occasional
// full-row wipes (tombstones).
GraphIndex::Delta RandomBatch(GraphDb* g, Rng* rng, int* next_label) {
  GraphIndex::Delta d;
  if (rng->Chance(0.3)) {
    g->AddNodes(static_cast<int>(rng->Range(1, 4)));
  }
  const int n_add = static_cast<int>(rng->Range(0, 60));
  for (int i = 0; i < n_add; ++i) {
    const NodeId from = static_cast<NodeId>(rng->Below(g->num_nodes()));
    const NodeId to = static_cast<NodeId>(rng->Below(g->num_nodes()));
    Symbol label;
    if (rng->Chance(0.02)) {
      const std::string name = "nl" + std::to_string((*next_label)++);
      g->AddEdge(from, name, to);
      label = *g->alphabet().Find(name);
    } else {
      label = static_cast<Symbol>(rng->Below(g->alphabet().size()));
      g->AddEdge(from, label, to);
    }
    d.added.push_back({from, label, to});
  }
  if (!d.added.empty() && rng->Chance(0.4)) {
    // Exact duplicate of an edge added above: multiset semantics.
    const Edge e = d.added[rng->Below(d.added.size())];
    g->AddEdge(e.from, e.label, e.to);
    d.added.push_back(e);
  }
  const int n_rem = static_cast<int>(rng->Range(0, 40));
  for (int i = 0; i < n_rem; ++i) {
    for (int tries = 0; tries < 20; ++tries) {
      const NodeId v = static_cast<NodeId>(rng->Below(g->num_nodes()));
      const auto& out = g->Out(v);
      if (out.empty()) continue;
      const auto [label, to] = out[rng->Below(out.size())];
      EXPECT_TRUE(g->RemoveEdge(v, label, to)) << "picked edge must exist";
      d.removed.push_back({v, label, to});
      break;
    }
  }
  if (rng->Chance(0.15)) {
    // Wipe one node's whole out-row: the empty merged row (tombstone)
    // must shadow its base row.
    const NodeId v = static_cast<NodeId>(rng->Below(g->num_nodes()));
    // A copy: RemoveEdge shifts the arcs the Out view shows.
    const std::vector<GraphDb::Arc> out(g->Out(v).begin(), g->Out(v).end());
    for (const auto& [label, to] : out) {
      EXPECT_TRUE(g->RemoveEdge(v, label, to)) << "wipe edge must exist";
      d.removed.push_back({v, label, to});
    }
  }
  d.new_num_nodes = g->num_nodes();
  d.new_num_labels = g->alphabet().size();
  d.new_version = g->version();
  return d;
}

Result<QueryResult> RunProduct(const GraphDb& g, const Query& q,
                               const EvalOptions& opts, GraphIndexPtr index) {
  return MaterializeResult([&](ResultSink& sink, EvalStats& stats) {
    return EvaluateProduct(g, q, opts, sink, stats, nullptr, std::move(index),
                           nullptr);
  });
}

// A product-leaf plan and an all-scan (CRPQ) plan, at 1 and 4 threads, on the overlay snapshot vs the fresh
// build: tuples AND counters byte-identical.
void CheckEnginesIdentical(const GraphDb& g, const GraphIndexPtr& fresh,
                           const GraphIndexPtr& snap) {
  const char* kProductQuery = "Ans(x, z) <- (x, p, y), (y, q, z), ab(p), c(q)";
  const char* kCrpqQuery = "Ans(x, y) <- (x, p, y), a+(p)";
  auto product_q = ParseQuery(kProductQuery, g.alphabet());
  auto crpq_q = ParseQuery(kCrpqQuery, g.alphabet());
  ASSERT_TRUE(product_q.ok()) << product_q.status().ToString();
  ASSERT_TRUE(crpq_q.ok()) << crpq_q.status().ToString();

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvalOptions opts;
    opts.build_path_answers = false;
    opts.num_threads = threads;

    auto check = [&](const Result<QueryResult>& on_fresh,
                     const Result<QueryResult>& on_snap) {
      ASSERT_TRUE(on_fresh.ok()) << on_fresh.status().ToString();
      ASSERT_TRUE(on_snap.ok()) << on_snap.status().ToString();
      EXPECT_EQ(on_fresh.value().tuples(), on_snap.value().tuples());
      const EvalStats& a = on_fresh.value().stats();
      const EvalStats& b = on_snap.value().stats();
      EXPECT_EQ(a.configs_explored, b.configs_explored);
      EXPECT_EQ(a.arcs_explored, b.arcs_explored);
      EXPECT_EQ(a.start_assignments, b.start_assignments);
      EXPECT_EQ(a.join_tuples, b.join_tuples);
    };
    check(RunProduct(g, product_q.value(), opts, fresh),
          RunProduct(g, product_q.value(), opts, snap));
    check(RunProduct(g, crpq_q.value(), opts, fresh),
          RunProduct(g, crpq_q.value(), opts, snap));
  }
}

// The acceptance property: 100 random mutation batches on a >= 100k-edge
// graph, overlay chain vs from-scratch rebuild after every batch.
TEST(IndexDeltaProperty, HundredBatchesMatchFreshBuild) {
  Rng rng(20260807);
  auto alphabet =
      Alphabet::FromLabels({"a", "b", "c", "d", "e", "f", "g", "h"});
  GraphDb g = PowerLawGraph(alphabet, 25000, 110000, &rng);
  ASSERT_GE(g.num_edges(), 100000);

  GraphIndexPtr snap = GraphIndex::Build(g);
  int next_label = 0;
  for (int batch = 0; batch < 100; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    GraphIndex::Delta delta = RandomBatch(&g, &rng, &next_label);
    snap = snap->ApplyDelta(delta);
    ASSERT_TRUE(snap->has_delta());
    ASSERT_EQ(snap->version(), g.version());

    GraphIndexPtr fresh = GraphIndex::Build(g);
    CheckSameView(fresh, snap);
    if (batch % 25 == 24) {
      CheckEnginesIdentical(g, fresh, snap);
    }
  }
  // 100 batches deep, the chain still shares the original base arrays
  // (a rare all-skip batch pushes no segment, hence GE not EQ).
  EXPECT_GE(snap->num_delta_segments(), 90u);
  EXPECT_GT(snap->delta_nodes(), 0u);
}

// Compaction folds: at random points of random delta chains, Fold() must
// be a sealed base equal to a from-scratch Build of the same graph in
// every base column (rows and offsets, read through a base-only
// snapshot), mask, label statistic and both degree orders. The chains mix
// adds, removes (same-batch add-then-remove, duplicate edges), emptied
// rows, fresh edge-less nodes, label growth and node-only batches, and
// go on from each folded base.
TEST(IndexFoldProperty, FoldEqualsBuildOverRandomChains) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
    GraphDb g = PowerLawGraph(alphabet, 200 + static_cast<int>(seed) * 20,
                              900, &rng);
    GraphIndexPtr snap = GraphIndex::Build(g);
    int next_label = 0;
    int folds = 0;
    for (int step = 0; step < 40; ++step) {
      GraphIndex::Delta delta;
      if (rng.Chance(0.1)) {
        // Node-only batch: fresh edge-less nodes and nothing else.
        g.AddNodes(static_cast<int>(rng.Range(1, 3)));
        delta.new_num_nodes = g.num_nodes();
        delta.new_num_labels = g.alphabet().size();
        delta.new_version = g.version();
      } else {
        delta = RandomBatch(&g, &rng, &next_label);
      }
      snap = snap->ApplyDelta(delta);
      if (step % 7 != 6 && step != 39) continue;
      // Fold both before and after a reader counted the degree orders.
      if (rng.Chance(0.5)) (void)snap->NodesByDegree();
      GraphIndexPtr folded = snap->Fold();
      ASSERT_FALSE(folded->has_delta());
      ASSERT_EQ(folded->delta_nodes(), 0u);
      ASSERT_EQ(folded->base_edges(), g.num_edges());
      CheckSameView(GraphIndex::Build(g), folded);
      if (HasFatalFailure()) return;
      snap = folded;
      ++folds;
    }
    EXPECT_EQ(folds, 6);
  }
}

TEST(IndexDelta, TombstoneShadowsBaseRow) {
  GraphDb g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  NodeId z = g.AddNode("z");
  g.AddEdge(x, "a", y);
  g.AddEdge(x, "b", z);
  g.AddEdge(y, "a", z);
  auto base = GraphIndex::Build(g);
  ASSERT_EQ(base->out_degree(x), 2);

  Symbol a = *g.alphabet().Find("a");
  Symbol b = *g.alphabet().Find("b");
  ASSERT_TRUE(g.RemoveEdge(x, a, y));
  ASSERT_TRUE(g.RemoveEdge(x, b, z));
  GraphIndex::Delta d;
  d.removed = {{x, a, y}, {x, b, z}};
  d.new_num_nodes = g.num_nodes();
  d.new_num_labels = g.alphabet().size();
  d.new_version = g.version();
  auto snap = base->ApplyDelta(d);

  EXPECT_EQ(snap->out_degree(x), 0);
  EXPECT_TRUE(snap->Out(x, a).empty());
  EXPECT_TRUE(snap->OutLabels(x).empty());
  EXPECT_EQ(snap->OutLabelMask(x), 0u);
  EXPECT_EQ(snap->num_edges(), 1);
  // y's in-row is tombstoned too; z keeps one in-edge.
  EXPECT_EQ(snap->in_degree(y), 0);
  EXPECT_EQ(snap->in_degree(z), 1);
  // The base snapshot is untouched.
  EXPECT_EQ(base->out_degree(x), 2);
  CheckSameView(GraphIndex::Build(g), snap);
}

TEST(IndexDelta, DuplicateEdgeRemovesOneInstance) {
  GraphDb g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  g.AddEdge(x, "a", y);
  g.AddEdge(x, "a", y);  // multiset: two instances
  auto base = GraphIndex::Build(g);
  ASSERT_EQ(base->Out(x, 0).size(), 2u);

  ASSERT_TRUE(g.RemoveEdge(x, 0, y));
  GraphIndex::Delta d;
  d.removed = {{x, 0, y}};
  d.new_num_nodes = g.num_nodes();
  d.new_num_labels = g.alphabet().size();
  d.new_version = g.version();
  auto snap = base->ApplyDelta(d);
  EXPECT_EQ(snap->Out(x, 0).size(), 1u);
  EXPECT_EQ(snap->num_edges(), 1);
  CheckSameView(GraphIndex::Build(g), snap);
}

TEST(IndexDelta, NodeOnlyBatchExtendsUniverse) {
  GraphDb g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  g.AddEdge(x, "a", y);
  auto base = GraphIndex::Build(g);

  const NodeId fresh_node = g.AddNodes(3);
  GraphIndex::Delta d;
  d.new_num_nodes = g.num_nodes();
  d.new_num_labels = g.alphabet().size();
  d.new_version = g.version();
  auto snap = base->ApplyDelta(d);

  EXPECT_EQ(snap->num_nodes(), 5);
  EXPECT_FALSE(snap->has_delta());  // no rows changed...
  // ...but the fresh nodes resolve as empty rows, not out-of-bounds.
  EXPECT_EQ(snap->out_degree(fresh_node), 0);
  EXPECT_TRUE(snap->Out(fresh_node, 0).empty());
  EXPECT_TRUE(snap->OutLabels(fresh_node + 2).empty());
  EXPECT_EQ(snap->OutLabelMask(fresh_node), 0u);
  CheckSameView(GraphIndex::Build(g), snap);
}

TEST(IndexDelta, NewLabelGrowsStatistics) {
  GraphDb g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  g.AddEdge(x, "a", y);
  auto base = GraphIndex::Build(g);
  ASSERT_EQ(base->num_labels(), 1);

  g.AddEdge(y, "brand_new", x);
  Symbol nl = *g.alphabet().Find("brand_new");
  GraphIndex::Delta d;
  d.added = {{y, nl, x}};
  d.new_num_nodes = g.num_nodes();
  d.new_num_labels = g.alphabet().size();
  d.new_version = g.version();
  auto snap = base->ApplyDelta(d);
  EXPECT_EQ(snap->num_labels(), 2);
  EXPECT_EQ(snap->LabelCount(nl), 1);
  EXPECT_EQ(snap->LabelSourceCount(nl), 1);
  EXPECT_EQ(snap->LabelTargetCount(nl), 1);
  CheckSameView(GraphIndex::Build(g), snap);
}

// ---- Database-level write path ---------------------------------------------

GraphDb NamedDemo() {
  GraphDb g;
  NodeId ann = g.AddNode("ann");
  NodeId bob = g.AddNode("bob");
  NodeId eva = g.AddNode("eva");
  g.AddNode("leo");
  g.AddEdge(ann, "advisor", eva);
  g.AddEdge(bob, "advisor", eva);
  g.AddEdge(bob, "coauthor", ann);
  return g;
}

// A cursor runs on the snapshot current at its first Next(): a write
// that lands between Execute and Next (here one that adds a node) is
// seen, not an error — the catalog has no out-lists to rebuild from.
TEST(DatabaseDelta, CursorRunsOnSnapshotCurrentAtFirstNext) {
  Database db(NamedDemo());
  auto prepared = db.Prepare("Ans(y) <- (x, p, y), 'advisor'(p)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto cursor = prepared.value().Execute();
  ASSERT_TRUE(cursor.ok());
  GraphMutation m;
  m.add_edges.push_back({"eva", "advisor", "zed"});
  ASSERT_EQ(db.ApplyDelta(m).new_nodes, 1);
  std::vector<std::string> got;
  while (cursor.value().Next()) {
    got.push_back(db.graph().NodeName(cursor.value().tuple()[0]));
  }
  ASSERT_TRUE(cursor.value().status().ok())
      << cursor.value().status().ToString();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"eva", "zed"}));
}

TEST(DatabaseDelta, ReadersPinPreDeltaSnapshot) {
  // NamedDemo has 3 edges, so the default compact_delta_fraction (0.10)
  // would schedule a background fold for even a 1-edge batch — and the
  // fold racing db.graph_index() below would erase the delta this test
  // observes. Raise the threshold so the batch deterministically stays
  // a delta snapshot.
  DatabaseOptions opts;
  opts.compact_delta_fraction = 10.0;
  Database db(NamedDemo(), opts);
  GraphIndexPtr before = db.graph_index();
  ASSERT_NE(before, nullptr);
  const int edges_before = before->num_edges();

  GraphMutation m;
  m.add_edges.push_back({"eva", "advisor", "leo"});
  MutationSummary s = db.ApplyDelta(m);
  EXPECT_TRUE(s.delta_applied);
  EXPECT_EQ(s.added_edges, 1);
  EXPECT_EQ(s.num_edges, edges_before + 1);

  GraphIndexPtr after = db.graph_index();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());  // distinct snapshot identity
  EXPECT_TRUE(after->has_delta());
  EXPECT_EQ(after->num_edges(), edges_before + 1);
  // The pinned pre-delta snapshot still serves its own, older view.
  EXPECT_EQ(before->num_edges(), edges_before);
  EXPECT_FALSE(before->has_delta());
}

TEST(DatabaseDelta, MutationSummaryCountsSkipsAndNewNodes) {
  Database db(NamedDemo());
  (void)db.graph_index();  // lazy-build so the batch has a snapshot to advance
  GraphMutation m;
  m.add_nodes = {"zoe"};
  m.add_edges.push_back({"ann", "advisor", "zoe"});
  m.add_edges.push_back({"newguy", "coauthor", "zoe"});  // creates newguy
  m.remove_edges.push_back({"bob", "coauthor", "ann"});     // exists
  m.remove_edges.push_back({"bob", "coauthor", "eva"});     // no such edge
  m.remove_edges.push_back({"ghost", "coauthor", "ann"});   // no such node
  m.remove_edges.push_back({"ann", "nolabel", "eva"});      // no such label
  MutationSummary s = db.ApplyDelta(m);
  EXPECT_EQ(s.added_edges, 2);
  EXPECT_EQ(s.removed_edges, 1);
  EXPECT_EQ(s.skipped_removes, 3);
  EXPECT_EQ(s.new_nodes, 2);  // zoe + newguy
  EXPECT_TRUE(s.delta_applied);
  // Query through the delta snapshot sees the new edge and not the
  // removed one.
  auto r = db.Execute("Ans(y) <- (\"ann\", p, y), 'advisor'(p)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tuples().size(), 2u);  // eva and zoe
  auto gone = db.Execute("Ans(y) <- (\"bob\", p, y), 'coauthor'(p)");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().tuples().empty());
}

TEST(DatabaseDelta, PlanCacheSurvivesAlphabetStableBatches) {
  Database db(NamedDemo());
  ASSERT_TRUE(db.Prepare("Ans(x, y) <- (x, p, y), 'advisor'+(p)").ok());
  ASSERT_EQ(db.plan_cache_size(), 1u);

  GraphMutation stable;
  stable.add_edges.push_back({"leo", "advisor", "ann"});
  db.ApplyDelta(stable);
  EXPECT_EQ(db.plan_cache_size(), 1u);  // alphabet unchanged: plans live

  GraphMutation growing;
  growing.add_edges.push_back({"leo", "mentor", "bob"});  // new label
  db.ApplyDelta(growing);
  EXPECT_EQ(db.plan_cache_size(), 0u);  // automata sized by alphabet
}

TEST(DatabaseDelta, SingleFlightCoalescesRacingBuilders) {
  Rng rng(7);
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  Database db(PowerLawGraph(alphabet, 50000, 400000, &rng));
  (void)db.graph_index();  // built by the constructor
  // MutateGraph rebuilds wholesale, once, before readers resume; the
  // racing readers below all get that snapshot and build nothing.
  const uint64_t before = db.index_full_builds();
  db.MutateGraph([](GraphDb&) {});

  std::vector<std::thread> threads;
  std::vector<GraphIndexPtr> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&db, &got, t] { got[t] = db.graph_index(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.index_full_builds() - before, 1u);  // exactly one build
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(got[0].get(), got[t].get());  // everyone got that one
  }
}

TEST(DatabaseDelta, SynchronousThresholdCompactionFolds) {
  DatabaseOptions opts;
  opts.background_compaction = false;
  opts.compact_delta_fraction = 0.0;  // any delta triggers the fold
  Database db(NamedDemo(), opts);
  (void)db.graph_index();
  GraphMutation m;
  m.add_edges.push_back({"eva", "advisor", "leo"});
  MutationSummary s = db.ApplyDelta(m);
  EXPECT_TRUE(s.delta_applied);
  GraphIndexPtr idx = db.graph_index();
  ASSERT_NE(idx, nullptr);
  EXPECT_FALSE(idx->has_delta());  // folded before the writer returned
  EXPECT_EQ(idx->num_edges(), 4);
}

TEST(DatabaseDelta, CompactIndexNowFoldsOnDemand) {
  DatabaseOptions opts;
  opts.compact_delta_fraction = 10.0;  // small batch stays delta (the
                                       // default 0.10 would background-fold
                                       // a 1-edge batch on this 3-edge demo)
  Database db(NamedDemo(), opts);
  (void)db.graph_index();
  GraphMutation m;
  m.add_edges.push_back({"eva", "advisor", "leo"});
  db.ApplyDelta(m);
  ASSERT_TRUE(db.graph_index()->has_delta());
  db.CompactIndexNow();
  GraphIndexPtr idx = db.graph_index();
  EXPECT_FALSE(idx->has_delta());
  EXPECT_EQ(idx->num_edges(), 4);
}

// Background compaction racing live readers and a writer; the sanitizer
// CI jobs (ASan/TSan) run this test to prove the fold/swap protocol is
// data-race free. Compaction triggers after every batch
// (compact_delta_fraction = 0).
TEST(DatabaseDelta, BackgroundCompactionRacesReadersCleanly) {
  Rng rng(11);
  auto alphabet = Alphabet::FromLabels({"a", "b", "c", "d"});
  DatabaseOptions opts;
  opts.background_compaction = true;
  opts.compact_delta_fraction = 0.0;
  Database db(PowerLawGraph(alphabet, 2000, 12000, &rng), opts);
  const int num_nodes = db.graph().num_nodes();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = db.Execute("Ans(x, y) <- (x, p, y), ab(p)");
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  Rng wrng(13);
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<Edge> add, remove;
    for (int i = 0; i < 50; ++i) {
      add.push_back({static_cast<NodeId>(wrng.Below(num_nodes)),
                     static_cast<Symbol>(wrng.Below(4)),
                     static_cast<NodeId>(wrng.Below(num_nodes))});
    }
    // Random removes: most miss (skipped), some hit earlier adds.
    for (int i = 0; i < 10; ++i) {
      remove.push_back({static_cast<NodeId>(wrng.Below(num_nodes)),
                        static_cast<Symbol>(wrng.Below(4)),
                        static_cast<NodeId>(wrng.Below(num_nodes))});
    }
    db.ApplyDelta(add, remove);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  // Eventually the background fold lands; force the tail for determinism.
  db.CompactIndexNow();
  EXPECT_FALSE(db.graph_index()->has_delta());
}

TEST(DatabaseDelta, ResultCacheEntriesMissAfterSnapshotSwap) {
  Database db(NamedDemo());
  ResultCache cache(/*capacity=*/16, /*max_rows=*/128);
  GraphIndexPtr old_snap = db.graph_index();
  auto result = std::make_shared<CachedResult>();
  result->arity = 1;
  WireWriter(&result->bytes).Str("eva");
  result->offsets.push_back(result->bytes.size());
  cache.Insert("q1", old_snap, result);
  ASSERT_NE(cache.Lookup("q1", old_snap), nullptr);

  GraphMutation m;
  m.add_edges.push_back({"eva", "advisor", "leo"});
  db.ApplyDelta(m);
  GraphIndexPtr new_snap = db.graph_index();
  ASSERT_NE(old_snap.get(), new_snap.get());
  // Keyed on the old snapshot: the new one misses — invalidation IS the
  // snapshot swap, with no extra bookkeeping on the delta path.
  EXPECT_EQ(cache.Lookup("q1", new_snap), nullptr);
}

}  // namespace
}  // namespace ecrpq
