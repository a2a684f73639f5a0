// The join operators of core/ops.h against nested-loop references.
//
// Power-law key distributions concentrate a large fraction of rows on a
// handful of hot keys, so a few index buckets carry most of the build
// side and dominate the match volume; a tiny key space makes every
// bucket chain long. HashJoinOp, SemiJoinFilterOp and
// StreamJoinOp must still produce exactly the nested-loop join's rows —
// content AND order — and its join_tuples, build_rows and probe_rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>
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

// A table over `vars` holding the distinct `rows` (the BindingTable
// contract), in first-seen order.
BindingTable Table(std::vector<int> vars,
                   const std::vector<std::vector<NodeId>>& rows) {
  BindingTable t(std::move(vars));
  std::set<std::vector<NodeId>> seen;
  for (const std::vector<NodeId>& row : rows) {
    if (seen.insert(row).second) t.rows.push_back(row);
  }
  return t;
}

std::vector<NodeId> RowOf(std::span<const NodeId> row) {
  return {row.begin(), row.end()};
}

// left(v0, v1) and right(v1, v2) joined on the skewed column v1. The
// right side's keys stop short of the left's cold range, so the semi-join
// genuinely removes rows.
void BuildSkewedTables(BindingTable* left, BindingTable* right) {
  Rng rng(97);
  std::vector<std::vector<NodeId>> left_rows, right_rows;
  for (int i = 0; i < 3000; ++i) {
    left_rows.push_back({static_cast<NodeId>(rng.Below(4000)),
                         SkewedKey(&rng, /*cold_range=*/400)});
    right_rows.push_back({SkewedKey(&rng, /*cold_range=*/200),
                          static_cast<NodeId>(rng.Below(4000))});
  }
  *left = Table({0, 1}, left_rows);
  *right = Table({1, 2}, right_rows);
}

const OperatorStats& LastOp(const EvalStats& stats) {
  EXPECT_FALSE(stats.operators.empty());
  return stats.operators.back();
}

// The nested-loop SemiJoinFilterOp reference: the target rows agreeing
// with some filter row on the shared variables, in target order.
std::vector<std::vector<NodeId>> NestedLoopSemiJoin(
    const BindingTable& target, const BindingTable& filter) {
  std::vector<std::vector<NodeId>> kept;
  for (std::span<const NodeId> trow : target.rows) {
    for (std::span<const NodeId> frow : filter.rows) {
      bool match = true;
      for (size_t fc = 0; fc < filter.vars.size() && match; ++fc) {
        const int tc = target.ColumnOf(filter.vars[fc]);
        match = tc < 0 || trow[tc] == frow[fc];
      }
      if (match) {
        kept.push_back(RowOf(trow));
        break;
      }
    }
  }
  return kept;
}

// HashJoinOp projected onto every column (left vars, then right's
// non-shared vars) against the nested-loop join: every (left row, right
// row) pair agreeing on the shared variables, in left-row order and
// ascending right row order. Both inputs hold distinct rows, so the
// joined rows are distinct and the projection drops none. The reference
// is walked in step with the output instead of materialized.
void ExpectHashJoinMatchesReference(const BindingTable& left,
                                    const BindingTable& right) {
  std::vector<int> vars = left.vars;
  std::vector<std::pair<int, int>> shared;  // (left col, right col)
  std::vector<int> extra;                   // right cols not shared
  for (size_t rc = 0; rc < right.vars.size(); ++rc) {
    const int lc = left.ColumnOf(right.vars[rc]);
    if (lc >= 0) {
      shared.emplace_back(lc, static_cast<int>(rc));
    } else {
      vars.push_back(right.vars[rc]);
      extra.push_back(static_cast<int>(rc));
    }
  }
  EvalStats stats;
  const BindingTable got = HashJoinOp(left, right, vars, stats);
  EXPECT_EQ(got.vars, vars);

  uint64_t tuples = 0, mismatches = 0;
  for (std::span<const NodeId> lrow : left.rows) {
    for (std::span<const NodeId> rrow : right.rows) {
      bool match = true;
      for (const auto& [lc, rc] : shared) match = match && lrow[lc] == rrow[rc];
      if (!match) continue;
      if (tuples < got.rows.size()) {
        std::span<const NodeId> row = got.rows[tuples];
        bool same = std::equal(lrow.begin(), lrow.end(), row.begin());
        for (size_t j = 0; j < extra.size(); ++j) {
          same = same && row[lrow.size() + j] == rrow[extra[j]];
        }
        mismatches += !same;
      }
      ++tuples;
    }
  }
  ASSERT_GT(tuples, 0u);
  EXPECT_EQ(got.rows.size(), tuples);
  EXPECT_EQ(mismatches, 0u);  // content AND order
  EXPECT_EQ(stats.join_tuples, tuples);
  const OperatorStats& op = LastOp(stats);
  EXPECT_EQ(op.op, "HashJoin");
  EXPECT_EQ(op.build_rows, right.rows.size());
  EXPECT_EQ(op.probe_rows, left.rows.size());
  EXPECT_EQ(op.rows_in, left.rows.size() + right.rows.size());
  EXPECT_EQ(op.rows_out, tuples);
}

TEST(JoinOps, SkewedHashJoinMatchesNestedLoopReference) {
  BindingTable left, right;
  BuildSkewedTables(&left, &right);
  ExpectHashJoinMatchesReference(left, right);
}

TEST(JoinOps, SkewedSemiJoinFilterMatchesNestedLoopReference) {
  BindingTable left, right;
  BuildSkewedTables(&left, &right);
  const std::vector<std::vector<NodeId>> want = NestedLoopSemiJoin(left, right);
  // Cold left keys in [209, 409) have no right partner, so rows must
  // actually be removed (the operator only records stats then), and the
  // first row survives, so compaction keeps a row in its own slot.
  ASSERT_LT(want.size(), left.rows.size());
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(want.front(), RowOf(left.rows[0]));

  EvalStats stats;
  BindingTable target = left;
  EXPECT_TRUE(SemiJoinFilterOp(&target, right, stats));
  EXPECT_EQ(target.vars, left.vars);
  EXPECT_EQ(target.rows.ToVectors(), want);  // content AND order
  const OperatorStats& op = LastOp(stats);
  EXPECT_EQ(op.op, "SemiJoinFilter");
  EXPECT_EQ(op.build_rows, right.rows.size());
  EXPECT_EQ(op.probe_rows, left.rows.size());
  EXPECT_EQ(op.rows_in, left.rows.size());
  EXPECT_EQ(op.rows_out, want.size());
}

// A tiny key space: three keys carry every row, so each bucket chain is
// hundreds of rows long and each left row matches a third of the right
// side.
TEST(JoinOps, TinyKeySpaceMatchesNestedLoopReference) {
  Rng rng(7);
  std::vector<std::vector<NodeId>> left_rows, right_rows;
  for (int i = 0; i < 2000; ++i) {
    left_rows.push_back({static_cast<NodeId>(rng.Below(3000)),
                         static_cast<NodeId>(rng.Below(3))});
    right_rows.push_back({static_cast<NodeId>(rng.Below(3)),
                          static_cast<NodeId>(rng.Below(3000))});
  }
  const BindingTable left = Table({0, 1}, left_rows);
  const BindingTable right = Table({1, 2}, right_rows);
  ExpectHashJoinMatchesReference(left, right);

  // Semi-join: only the right rows with key 0 filter, so the left rows
  // keyed 1 and 2 go.
  BindingTable filter(right.vars);
  for (std::span<const NodeId> row : right.rows) {
    if (row[0] == 0) filter.rows.push_back(row);
  }
  const std::vector<std::vector<NodeId>> want =
      NestedLoopSemiJoin(left, filter);
  EvalStats stats;
  BindingTable target = left;
  EXPECT_TRUE(SemiJoinFilterOp(&target, filter, stats));
  EXPECT_EQ(target.rows.ToVectors(), want);
  EXPECT_EQ(LastOp(stats).build_rows, filter.rows.size());
  EXPECT_EQ(LastOp(stats).probe_rows, left.rows.size());
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
  for (std::span<const NodeId> row : t.rows) {
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
// rows per key, so probe hits must re-check the key columns). The last
// table is sometimes large (5000 rows before dedup).
std::vector<BindingTable> RandomJoinTables(Rng* rng) {
  const size_t n = 1 + rng->Below(4);
  const bool tiny = rng->Chance(0.3);
  std::vector<BindingTable> tables;
  for (size_t k = 0; k < n; ++k) {
    std::vector<int> vars = {0, 1, 2, 3, 4};
    for (size_t i = vars.size() - 1; i > 0; --i) {
      std::swap(vars[i], vars[rng->Below(i + 1)]);
    }
    const bool large = k > 0 && k + 1 == n && rng->Chance(0.3);
    vars.resize((large ? 2 : 1) + rng->Below(2));
    std::vector<std::vector<NodeId>> rows(large ? 5000 : 1 + rng->Below(30));
    for (std::vector<NodeId>& row : rows) {
      for (size_t c = 0; c < vars.size(); ++c) {
        if (large && c > 0) {
          row.push_back(static_cast<NodeId>(rng->Below(4000)));
        } else {
          row.push_back(tiny ? static_cast<NodeId>(rng->Below(3))
                             : SkewedKey(rng, /*cold_range=*/40));
        }
      }
    }
    tables.push_back(Table(vars, rows));
  }
  return tables;
}

TEST(StreamJoin, MatchesNestedLoopReference) {
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

    EvalStats stats;
    std::vector<std::vector<NodeId>> got;
    StreamJoinOp(tables, 5, stats, /*cancel=*/nullptr,
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

    // A stop after k tuples keeps exactly the first k.
    if (want.size() < 2) continue;
    const size_t k = 1 + rng.Below(want.size() - 1);
    std::vector<std::vector<NodeId>> first;
    StreamJoinOp(tables, 5, stats, /*cancel=*/nullptr,
                 [&](const std::vector<NodeId>& b) {
                   first.push_back(b);
                   return first.size() < k;
                 });
    EXPECT_EQ(first, std::vector<std::vector<NodeId>>(want.begin(),
                                                      want.begin() + k));
  }
  EXPECT_GT(crosses, 0);
  EXPECT_GT(large, 0);
}

TEST(StreamJoin, NoTablesIsTheUnitAndCancelStops) {
  EvalStats stats;
  int calls = 0;
  StreamJoinOp({}, 3, stats, /*cancel=*/nullptr,
               [&](const std::vector<NodeId>& b) {
                 EXPECT_EQ(b, (std::vector<NodeId>{-1, -1, -1}));
                 ++calls;
                 return true;
               });
  EXPECT_EQ(calls, 1);

  const BindingTable t = Table({0}, {{1}, {2}, {3}});
  CancellationToken cancel;
  cancel.Cancel();
  calls = 0;
  StreamJoinOp({t}, 1, stats, &cancel, [&](const std::vector<NodeId>&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace ecrpq
