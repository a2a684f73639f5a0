// Skew robustness of the radix-partitioned join pipeline (core/ops.h).
//
// Power-law key distributions concentrate a large fraction of rows on a
// handful of hot keys, so a few partitions carry most of the build and a
// few probe buckets dominate the match volume. The partitioned HashJoinOp
// and SemiJoinFilterOp must still produce byte-identical tables — rows AND
// row order — to the serial implementations at every lane count, and the
// per-lane build/probe counters must merge to the same totals. This file
// runs under the CI ThreadSanitizer job (full ctest), so the partition
// scatter and the two-pass probe are also raced deliberately here.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/evaluator.h"
#include "core/ops.h"
#include "util/random.h"

namespace ecrpq {
namespace {

// A key sampler with a power-law-ish profile: ~30% of draws hit one hot
// key, ~20% spread over a warm band of 8, the rest over a cold range.
NodeId SkewedKey(Rng* rng, int cold_range) {
  const uint64_t roll = rng->Below(100);
  if (roll < 30) return 0;                                 // hot key
  if (roll < 50) return static_cast<NodeId>(1 + rng->Below(8));  // warm
  return static_cast<NodeId>(9 + rng->Below(cold_range));        // cold
}

// Distinct rows (the BindingTable contract), preserving first-seen order.
void Dedup(BindingTable* t) {
  std::set<std::vector<NodeId>> seen;
  std::vector<std::vector<NodeId>> rows;
  for (auto& row : t->rows) {
    if (seen.insert(row).second) rows.push_back(std::move(row));
  }
  t->rows = std::move(rows);
}

// left(v0, v1) and right(v1, v2) joined on the skewed column v1. The
// right side's keys stop short of the left's cold range, so the semi-join
// genuinely removes rows.
void BuildSkewedTables(BindingTable* left, BindingTable* right) {
  Rng rng(97);
  left->vars = {0, 1};
  right->vars = {1, 2};
  for (int i = 0; i < 9000; ++i) {
    left->rows.push_back({static_cast<NodeId>(rng.Below(4000)),
                          SkewedKey(&rng, /*cold_range=*/400)});
    right->rows.push_back({SkewedKey(&rng, /*cold_range=*/200),
                           static_cast<NodeId>(rng.Below(4000))});
  }
  Dedup(left);
  Dedup(right);
}

const OperatorStats& LastOp(const EvalStats& stats) {
  EXPECT_FALSE(stats.operators.empty());
  return stats.operators.back();
}

TEST(PartitionedJoin, SkewedHashJoinMatchesSerialAtEveryLaneCount) {
  BindingTable left, right;
  BuildSkewedTables(&left, &right);
  // Both sides comfortably above the stay-inline row threshold.
  ASSERT_GE(left.rows.size(), 4096u);
  ASSERT_GE(right.rows.size(), 4096u);

  EvalStats serial_stats;
  const BindingTable serial = HashJoinOp(left, right, serial_stats, 1);
  ASSERT_FALSE(serial.rows.empty());
  const OperatorStats& serial_op = LastOp(serial_stats);
  EXPECT_EQ(serial_op.op, "HashJoin");
  EXPECT_EQ(serial_op.build_rows, right.rows.size());
  EXPECT_EQ(serial_op.probe_rows, left.rows.size());

  for (int threads : {2, 4, 8}) {
    EvalStats stats;
    const BindingTable parallel = HashJoinOp(left, right, stats, threads);
    EXPECT_EQ(parallel.vars, serial.vars) << "threads=" << threads;
    EXPECT_EQ(parallel.rows, serial.rows)  // content AND order
        << "threads=" << threads;
    EXPECT_EQ(stats.join_tuples, serial_stats.join_tuples)
        << "threads=" << threads;
    // The per-lane build/probe counters must merge to the serial totals
    // regardless of how the morsels were distributed over lanes.
    const OperatorStats& op = LastOp(stats);
    EXPECT_EQ(op.op, "HashJoin");
    EXPECT_EQ(op.threads, threads);
    EXPECT_EQ(op.build_rows, serial_op.build_rows) << "threads=" << threads;
    EXPECT_EQ(op.probe_rows, serial_op.probe_rows) << "threads=" << threads;
    EXPECT_EQ(op.rows_in, serial_op.rows_in);
    EXPECT_EQ(op.rows_out, serial_op.rows_out);
  }
}

TEST(PartitionedJoin, SkewedSemiJoinFilterMatchesSerialAtEveryLaneCount) {
  BindingTable left, right;
  BuildSkewedTables(&left, &right);

  EvalStats serial_stats;
  BindingTable serial_target = left;
  const bool serial_shrank =
      SemiJoinFilterOp(&serial_target, right, serial_stats, 1);
  // Cold left keys in [209, 409) have no right partner, so rows must
  // actually have been removed (the operator only records stats then).
  ASSERT_TRUE(serial_shrank);
  ASSERT_LT(serial_target.rows.size(), left.rows.size());
  const OperatorStats& serial_op = LastOp(serial_stats);
  EXPECT_EQ(serial_op.op, "SemiJoinFilter");
  EXPECT_EQ(serial_op.build_rows, right.rows.size());
  EXPECT_EQ(serial_op.probe_rows, left.rows.size());

  for (int threads : {2, 4, 8}) {
    EvalStats stats;
    BindingTable target = left;
    const bool shrank = SemiJoinFilterOp(&target, right, stats, threads);
    EXPECT_EQ(shrank, serial_shrank) << "threads=" << threads;
    EXPECT_EQ(target.vars, serial_target.vars);
    EXPECT_EQ(target.rows, serial_target.rows)  // content AND order
        << "threads=" << threads;
    const OperatorStats& op = LastOp(stats);
    EXPECT_EQ(op.op, "SemiJoinFilter");
    EXPECT_EQ(op.threads, threads);
    EXPECT_EQ(op.build_rows, serial_op.build_rows) << "threads=" << threads;
    EXPECT_EQ(op.probe_rows, serial_op.probe_rows) << "threads=" << threads;
    EXPECT_EQ(op.rows_in, serial_op.rows_in);
    EXPECT_EQ(op.rows_out, serial_op.rows_out);
  }
}

// Hash-collision safety net: many distinct keys land in few partitions
// when the key space is tiny, and every probe hit must re-check the real
// key columns, not just the 64-bit hash.
TEST(PartitionedJoin, TinyKeySpaceCrossCheck) {
  Rng rng(7);
  BindingTable left, right;
  left.vars = {0, 1};
  right.vars = {1, 2};
  for (int i = 0; i < 6000; ++i) {
    left.rows.push_back({static_cast<NodeId>(rng.Below(3000)),
                         static_cast<NodeId>(rng.Below(3))});
    right.rows.push_back({static_cast<NodeId>(rng.Below(3)),
                          static_cast<NodeId>(rng.Below(3000))});
  }
  Dedup(&left);
  Dedup(&right);

  EvalStats serial_stats, parallel_stats;
  const BindingTable serial = HashJoinOp(left, right, serial_stats, 1);
  const BindingTable parallel = HashJoinOp(left, right, parallel_stats, 8);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(serial_stats.join_tuples, parallel_stats.join_tuples);
}

// ---- the streamed final join ----------------------------------------------

// The nested-loop join StreamJoinOp must reproduce: table-0 rows in
// order, each later table's rows in order, keeping those consistent with
// the binding so far. `probes` counts the partial tuples that reach a
// table after the first (StreamJoinOp's index lookups).
void NestedLoopJoin(const std::vector<BindingTable>& tables, size_t k,
                    std::vector<NodeId>* binding,
                    std::vector<std::vector<NodeId>>* out,
                    uint64_t* probes) {
  if (k == tables.size()) {
    out->push_back(*binding);
    return;
  }
  if (k > 0) ++*probes;
  const BindingTable& t = tables[k];
  for (const std::vector<NodeId>& row : t.rows) {
    std::vector<int> bound;
    bool ok = true;
    for (size_t c = 0; c < t.vars.size() && ok; ++c) {
      NodeId& slot = (*binding)[t.vars[c]];
      if (slot >= 0) {
        ok = slot == row[c];
      } else {
        slot = row[c];
        bound.push_back(t.vars[c]);
      }
    }
    if (ok) NestedLoopJoin(tables, k + 1, binding, out, probes);
    for (int v : bound) (*binding)[v] = -1;
  }
}

// 1–4 random tables over 5 variables: skewed keys, cross joins (a table
// sharing no column with the earlier ones) and a tiny key space (many
// distinct keys per partition, so probe hits must re-check the key
// columns). The last table is sometimes large enough for the
// partitioned build to take lanes.
std::vector<BindingTable> RandomJoinTables(Rng* rng) {
  const size_t n = 1 + rng->Below(4);
  const bool tiny = rng->Chance(0.3);
  std::vector<BindingTable> tables(n);
  for (size_t k = 0; k < n; ++k) {
    BindingTable& t = tables[k];
    std::vector<int> vars = {0, 1, 2, 3, 4};
    for (size_t i = vars.size() - 1; i > 0; --i) {
      std::swap(vars[i], vars[rng->Below(i + 1)]);
    }
    const bool large = k > 0 && k + 1 == n && rng->Chance(0.3);
    vars.resize((large ? 2 : 1) + rng->Below(2));
    t.vars = vars;
    const uint64_t rows = large ? 5000 : 1 + rng->Below(30);
    for (uint64_t r = 0; r < rows; ++r) {
      std::vector<NodeId> row;
      for (size_t c = 0; c < vars.size(); ++c) {
        if (large && c > 0) {
          row.push_back(static_cast<NodeId>(rng->Below(4000)));
        } else {
          row.push_back(tiny ? static_cast<NodeId>(rng->Below(3))
                             : SkewedKey(rng, /*cold_range=*/40));
        }
      }
      t.rows.push_back(std::move(row));
    }
    Dedup(&t);
  }
  return tables;
}

TEST(StreamJoin, MatchesNestedLoopReferenceAtEveryLaneCount) {
  int crosses = 0;
  int large = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31 + 5);
    const std::vector<BindingTable> tables = RandomJoinTables(&rng);
    std::vector<bool> seen(5, false);
    for (size_t k = 0; k < tables.size(); ++k) {
      bool shares = false;
      for (int v : tables[k].vars) shares = shares || seen[v];
      if (k > 0 && !shares) ++crosses;
      if (k > 0 && tables[k].rows.size() >= 4096) ++large;
      for (int v : tables[k].vars) seen[v] = true;
    }
    std::vector<std::vector<NodeId>> want;
    std::vector<NodeId> binding(5, -1);
    uint64_t probes = 0;
    NestedLoopJoin(tables, 0, &binding, &want, &probes);
    uint64_t build_rows = 0;
    for (size_t k = 1; k < tables.size(); ++k) {
      build_rows += tables[k].rows.size();
    }

    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EvalStats stats;
      std::vector<std::vector<NodeId>> got;
      StreamJoinOp(tables, 5, stats, threads, /*cancel=*/nullptr,
                   [&](const std::vector<NodeId>& b) {
                     got.push_back(b);
                     return true;
                   });
      EXPECT_EQ(got, want);  // content AND order
      EXPECT_EQ(stats.join_tuples, want.size());
      const OperatorStats& op = LastOp(stats);
      EXPECT_EQ(op.op, "HashJoin");
      EXPECT_EQ(op.rows_out, want.size());
      EXPECT_EQ(op.build_rows, build_rows);
      EXPECT_EQ(op.probe_rows, probes);
      const bool builds_large =
          tables.size() > 1 && tables.back().rows.size() >= 4096;
      EXPECT_EQ(op.threads, builds_large ? threads : 1);

      // A stop after k tuples keeps exactly the first k.
      if (want.size() < 2) continue;
      const size_t k = 1 + rng.Below(want.size() - 1);
      std::vector<std::vector<NodeId>> first;
      StreamJoinOp(tables, 5, stats, threads, /*cancel=*/nullptr,
                   [&](const std::vector<NodeId>& b) {
                     first.push_back(b);
                     return first.size() < k;
                   });
      EXPECT_EQ(first, std::vector<std::vector<NodeId>>(
                           want.begin(), want.begin() + k));
    }
  }
  EXPECT_GT(crosses, 0);
  EXPECT_GT(large, 0);
}

TEST(StreamJoin, NoTablesIsTheUnitAndCancelStops) {
  EvalStats stats;
  int calls = 0;
  StreamJoinOp({}, 3, stats, 1, /*cancel=*/nullptr,
               [&](const std::vector<NodeId>& b) {
                 EXPECT_EQ(b, (std::vector<NodeId>{-1, -1, -1}));
                 ++calls;
                 return true;
               });
  EXPECT_EQ(calls, 1);

  BindingTable t;
  t.vars = {0};
  t.rows = {{1}, {2}, {3}};
  CancellationToken cancel;
  cancel.Cancel();
  calls = 0;
  StreamJoinOp({t}, 1, stats, 1, &cancel,
               [&](const std::vector<NodeId>&) {
                 ++calls;
                 return true;
               });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace ecrpq
