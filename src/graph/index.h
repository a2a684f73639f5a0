// Segmented CSR label index of a graph — the evaluation hot-path view, and
// in a Database the graph itself.
//
// Theorem 6.1's NLOGSPACE data-complexity argument works on-the-fly: a
// product configuration holds one graph node per path variable plus one
// NFA state-set per relation, and a step only needs the edges of those
// nodes *restricted to the letters the relation states can currently
// read*. GraphIndex realizes the restricted-edge access the theorem
// assumes:
//
//   * out- and in-edges in CSR form (one offsets array, one labels array,
//     one targets array), sorted by (node, label, target) — the
//     per-(node, label) successor set is a contiguous slice found by
//     binary search inside the node's range;
//   * a per-node label bitmask (alphabets here are small) so a frontier
//     expansion can intersect "letters the automaton can read" with
//     "letters this node has" in one AND before touching edge memory;
//   * per-label edge counts (selectivity, used by planners/benches) and a
//     degree-descending node permutation for frontier seeding: start-node
//     enumeration visits high-degree nodes first, which reaches accepting
//     configurations sooner under early termination (LIMIT / EXISTS).
//
// The snapshot is the graph
// -------------------------
// Every engine reads the graph through a snapshot, and a Database holds no
// other adjacency: its GraphDb is only the catalog (names, labels, counts;
// see GraphDb::TakeAdjacency). A GraphDb with out-lists is a builder that
// Build turns into a snapshot: seeds, MutateGraph's scratch graph and
// engines run standalone on a GraphDb.
//
// Snapshots and deltas
// --------------------
// An index is an immutable snapshot; engines never see it change. Three
// ways a snapshot comes to exist:
//
//   * Build(graph) / FromOutRows(catalog, rows): a sealed BASE —
//     size-then-fill CSR construction, O(V + E + max degree) plus a sort
//     of each out-row not yet in (label, target) order. FromOutRows takes
//     the out-rows as columns the caller filled (the checkpoint decoder).
//   * snapshot->ApplyDelta(batch): a DELTA snapshot layered on the same
//     base. The batch's touched nodes get fully *merged* logical rows
//     (previous view of the row ⊎ adds ∖ removes, kept (label, target)-
//     sorted) written into one new shared_ptr-held delta segment; every
//     untouched row keeps resolving into the shared base (or an older
//     segment) untouched. Removing every edge of a row leaves an empty
//     row in the segment — the tombstone that shadows the base row.
//     Cost is O(|batch| + Σ degree(touched) + |overlay|), independent of
//     V and E — the O(delta) write path Database::CommitDelta rides.
//   * snapshot->Fold(): compaction. Each row of a new base is copied from
//     the overlay row that shadows it or from the old base, masks and
//     label statistics carry over, and the degree orders are counted
//     from the new base: no sort, no inversion, no GraphDb.
//
// A delta snapshot presents the exact logical view a from-scratch Build
// of the mutated graph would: identical slices, masks, degrees, label
// statistics, and degree-ordered permutations, and a folded base is
// byte-identical to that Build (both property-tested in
// tests/index_delta_test.cc), so engines and planner cost models are
// byte-for-byte oblivious to which kind of snapshot they run on. Each
// row lookup costs one branch when the overlay is empty and one binary
// search over the touched-node directory otherwise; Database folds
// segments back into a fresh base (threshold/background compaction) so
// the directory stays small.
//
// Database (src/api) owns the snapshot-swap protocol: executions pin a
// snapshot shared_ptr for their whole run and finish against it even as
// writers chain new delta snapshots; the serving layer's result cache
// keys on the snapshot pointer, so every delta (and every compaction) is
// a distinct cache generation. An engine handed no snapshot builds its
// own.

#ifndef ECRPQ_GRAPH_INDEX_H_
#define ECRPQ_GRAPH_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/page_alloc.h"

namespace ecrpq {

class GraphIndex;
using GraphIndexPtr = std::shared_ptr<const GraphIndex>;

class GraphIndex {
 public:
  /// One write batch in index terms: already-interned labels, resolved
  /// node ids, and the post-batch totals of the graph the batch was
  /// applied to. `removed` must list only edges that are present once
  /// `added` is in (Database::CommitDelta checks them against the
  /// snapshot's rows), each entry deleting one instance under multiset
  /// semantics.
  struct Delta {
    std::vector<Edge> added;
    std::vector<Edge> removed;
    /// Totals of the mutated graph (>= the snapshot's; node ids in
    /// [num_nodes(), new_num_nodes) are the batch's fresh nodes).
    int new_num_nodes = 0;
    int new_num_labels = 0;
    /// GraphDb::version() after the batch (staleness checks).
    uint64_t new_version = 0;
  };

  /// Edge counts from which Build splits its passes over pool lanes;
  /// smaller graphs build serially (the hand-off costs more than it saves).
  static constexpr int kParallelBuildMinEdges = 1 << 19;

  /// Out-side CSR columns a caller filled: offsets has num_nodes + 1
  /// entries, labels and targets hold the rows back to back, and a row
  /// need not be in (label, target) order.
  struct OutRows {
    PageVector<int32_t> offsets;
    PageVector<Symbol> labels;
    PageVector<NodeId> targets;
  };

  /// Builds a sealed base index (CSR arrays, masks, counts, permutation)
  /// from the current state of `graph`, as FromOutRows with the rows
  /// copied from the out-lists. Each out-row is sorted as
  /// packed (label << 32 | target) keys, the in-side is dealt from the
  /// finished out-side by stable counting passes (no sort; 8 B/edge of
  /// scratch, freed on return), and both degree orders are counting sorts.
  /// The CSR columns and the inversion scratch are PageVectors: any of
  /// them of kPageMapMinBytes (1 MiB) or more is its own mapping, returned
  /// to the kernel when the last snapshot sharing the base goes (see
  /// util/page_alloc.h). Auto-parallelizes from kParallelBuildMinEdges.
  static GraphIndexPtr Build(const GraphDb& graph);

  /// As Build, with `num_threads` pool lanes (0 = auto) from
  /// kParallelBuildMinEdges edges on: the out-side fill splits over node
  /// ranges, and the in-side inversion counts and buckets over source
  /// ranges and deals over target ranges, each balanced by edge count.
  /// The lanes write disjoint slices in the serial order, so the built
  /// index is byte-identical at any lane count.
  static GraphIndexPtr Build(const GraphDb& graph, int num_threads);

  /// Seals out-rows the caller filled into a base snapshot of the graph
  /// `catalog` describes (names are not read; its node, edge and label
  /// counts and version() are the snapshot's). Rows already in (label,
  /// target) order are only read, any other is sorted; then as Build,
  /// and byte-identical to Build of the same graph. `rows` is moved into
  /// the base, so the only scratch is the in-side inversion's.
  static GraphIndexPtr FromOutRows(const GraphDb& catalog, OutRows rows,
                                   int num_threads = 0);

  /// Compaction: a sealed base with this snapshot's logical view, its
  /// rows copied from the overlay or the old base, its masks and label
  /// statistics carried over, and its degree orders counted from the new
  /// base. Byte-identical to Build of the same graph; O(V + E) copying
  /// with no sort and no scratch beyond the new base.
  GraphIndexPtr Fold() const;

  /// A new snapshot presenting this snapshot's view plus `delta`. Shares
  /// the base CSR and all prior segments; adds one segment holding the
  /// merged rows of the touched nodes. O(delta), never O(V + E) — see
  /// the header comment. This snapshot is unchanged.
  GraphIndexPtr ApplyDelta(const Delta& delta) const;

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return num_edges_; }
  /// Alphabet size at snapshot time (the snapshot's label universe).
  int num_labels() const { return num_labels_; }

  /// GraphDb::version() of the graph state this snapshot reflects.
  uint64_t version() const { return version_; }

  // ---- delta-chain introspection (compaction policy, stats) ----

  bool has_delta() const { return !segments_.empty(); }
  size_t num_delta_segments() const { return segments_.size(); }
  /// Nodes whose rows live in the overlay rather than the base.
  size_t delta_nodes() const { return out_overlay_.nodes.size(); }
  /// Edges resident in overlay rows (out side): the overlay's footprint,
  /// compared against base_edges() by the compaction threshold.
  int64_t delta_edges() const { return delta_edges_; }
  /// Edge count of the shared base the segments shadow.
  int base_edges() const { return base_num_edges_; }

  /// Targets of `node`'s out-edges labeled `label` (a contiguous,
  /// ascending slice; empty when the node has no such edge).
  std::span<const NodeId> Out(NodeId node, Symbol label) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(out_overlay_, node)) {
        return SliceRow(*r, label);
      }
      if (node >= base_num_nodes_) return {};
    }
    return SliceBase(*bout_, node, label);
  }
  /// Sources of `node`'s in-edges labeled `label`.
  std::span<const NodeId> In(NodeId node, Symbol label) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(in_overlay_, node)) {
        return SliceRow(*r, label);
      }
      if (node >= base_num_nodes_) return {};
    }
    return SliceBase(*bin_, node, label);
  }

  /// All out-edge labels/targets of `node`, sorted by label (parallel
  /// spans of equal length).
  std::span<const Symbol> OutLabels(NodeId node) const {
    return RowLabels(out_overlay_, *bout_, node);
  }
  std::span<const NodeId> OutTargets(NodeId node) const {
    return RowTargets(out_overlay_, *bout_, node);
  }
  std::span<const Symbol> InLabels(NodeId node) const {
    return RowLabels(in_overlay_, *bin_, node);
  }
  std::span<const NodeId> InSources(NodeId node) const {
    return RowTargets(in_overlay_, *bin_, node);
  }

  /// Bit `l` set iff `node` has an out-edge labeled `l` (labels >= 63
  /// collapse into bit 63; exact when num_labels() <= 63, which covers
  /// every workload here — callers must treat bit 63 as "maybe").
  uint64_t OutLabelMask(NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(out_overlay_, node)) return r->mask;
      if (node >= base_num_nodes_) return 0;
    }
    return bout_->masks[node];
  }
  uint64_t InLabelMask(NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(in_overlay_, node)) return r->mask;
      if (node >= base_num_nodes_) return 0;
    }
    return bin_->masks[node];
  }

  int out_degree(NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(out_overlay_, node)) return r->len;
      if (node >= base_num_nodes_) return 0;
    }
    return bout_->offsets[node + 1] - bout_->offsets[node];
  }
  int in_degree(NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(in_overlay_, node)) return r->len;
      if (node >= base_num_nodes_) return 0;
    }
    return bin_->offsets[node + 1] - bin_->offsets[node];
  }

  /// Total number of edges carrying `label`.
  int64_t LabelCount(Symbol label) const { return label_counts_[label]; }

  /// Distinct nodes with at least one out-edge (in-edge) carrying `label`.
  /// Planner statistics: LabelCount / LabelSourceCount is the average
  /// per-source fanout of the label, and the source/target counts bound
  /// the frontier a label-restricted expansion can reach.
  int64_t LabelSourceCount(Symbol label) const {
    return label_source_counts_[label];
  }
  int64_t LabelTargetCount(Symbol label) const {
    return label_target_counts_[label];
  }

  /// Every node exactly once, by descending (out + in) degree; ties by
  /// ascending id. Frontier seeding order. On a delta snapshot the first
  /// call counts it (see EnsureDegreeOrders); every later call is a plain
  /// reference return.
  const std::vector<NodeId>& NodesByDegree() const {
    EnsureDegreeOrders();
    return by_degree_;
  }

  /// Every node exactly once, by descending in-degree; ties by ascending
  /// id. Seeding order for backward / bidirectional searches: end-anchor
  /// enumeration visits the nodes with the densest backward frontiers
  /// first, reaching accepting configurations sooner under early
  /// termination (the in-side mirror of NodesByDegree).
  const std::vector<NodeId>& NodesByInDegree() const {
    EnsureDegreeOrders();
    return by_in_degree_;
  }

 private:
  GraphIndex() = default;

  /// One CSR direction of the sealed base: offsets (num_nodes + 1),
  /// labels/targets (num_edges) sorted by (node, label, target), per-node
  /// label-presence masks.
  struct Side {
    PageVector<int32_t> offsets;
    PageVector<Symbol> labels;
    PageVector<NodeId> targets;
    PageVector<uint64_t> masks;
  };
  /// The immutable arrays every snapshot of one build generation shares.
  struct Base {
    int num_nodes = 0;
    Side out, in;
  };
  /// One direction of one delta batch: the concatenated merged rows of
  /// the nodes the batch touched (row i spans
  /// [offsets[i], offsets[i+1]) of labels/targets).
  struct SegSide {
    std::vector<int32_t> offsets{0};
    std::vector<Symbol> labels;
    std::vector<NodeId> targets;
  };
  struct DeltaSegment {
    SegSide out, in;
  };

  /// A resolved overlay row: raw pointers into whichever segment holds
  /// the node's newest merged row (kept alive by segments_).
  struct RowRef {
    const Symbol* labels;
    const NodeId* targets;
    int32_t len;
    uint64_t mask;
  };
  /// Per-side directory of overlay rows, sorted by node id. One binary
  /// search resolves a touched node regardless of chain depth.
  struct Overlay {
    std::vector<NodeId> nodes;
    std::vector<RowRef> rows;
  };

  static const RowRef* FindOverlay(const Overlay& overlay, NodeId node) {
    auto it = std::lower_bound(overlay.nodes.begin(), overlay.nodes.end(),
                               node);
    if (it == overlay.nodes.end() || *it != node) return nullptr;
    return &overlay.rows[it - overlay.nodes.begin()];
  }
  static std::span<const NodeId> SliceRow(const RowRef& row, Symbol label) {
    auto [lo, hi] = std::equal_range(row.labels, row.labels + row.len, label);
    return {row.targets + (lo - row.labels), row.targets + (hi - row.labels)};
  }
  static std::span<const NodeId> SliceBase(const Side& side, NodeId node,
                                           Symbol label) {
    const Symbol* first = side.labels.data() + side.offsets[node];
    const Symbol* last = side.labels.data() + side.offsets[node + 1];
    auto [lo, hi] = std::equal_range(first, last, label);
    return {side.targets.data() + (lo - side.labels.data()),
            side.targets.data() + (hi - side.labels.data())};
  }
  std::span<const Symbol> RowLabels(const Overlay& overlay, const Side& side,
                                    NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(overlay, node)) {
        return {r->labels, r->labels + r->len};
      }
      if (node >= base_num_nodes_) return {};
    }
    return {side.labels.data() + side.offsets[node],
            side.labels.data() + side.offsets[node + 1]};
  }
  std::span<const NodeId> RowTargets(const Overlay& overlay, const Side& side,
                                     NodeId node) const {
    if (overlay_path_) [[unlikely]] {
      if (const RowRef* r = FindOverlay(overlay, node)) {
        return {r->targets, r->targets + r->len};
      }
      if (node >= base_num_nodes_) return {};
    }
    return {side.targets.data() + side.offsets[node],
            side.targets.data() + side.offsets[node + 1]};
  }

  /// Build and FromOutRows: seals `rows` of the graph `catalog`
  /// describes, first filling them from `source`'s out-lists if given.
  static GraphIndexPtr Seal(const GraphDb& catalog, const GraphDb* source,
                            OutRows rows, int num_threads);
  /// Build helper: fills `in` as the transpose of the finished `out`
  /// side, plus the three label statistics (see index.cc).
  void InvertOutSide(const Side& out, int num_threads, Side* in);
  /// Fold helper: one side of the new base from `overlay` over `old`.
  void FoldSide(const Overlay& overlay, const Side& old, Side* side) const;
  /// ApplyDelta helper: merges one side's batch into a new SegSide and
  /// splices the touched rows into `next`'s overlay (see index.cc).
  static void ApplySide(const GraphIndex& prev, bool out_side,
                        const Delta& delta, GraphIndex* next,
                        SegSide* seg_side, std::vector<NodeId>* touched);
  void EnsureDegreeOrders() const;

  int num_nodes_ = 0;
  int num_edges_ = 0;
  int num_labels_ = 0;
  uint64_t version_ = 0;

  // Shared immutable arrays: the base build plus the delta segments
  // shadowing parts of it (empty for a sealed base snapshot).
  std::shared_ptr<const Base> base_;
  std::vector<std::shared_ptr<const DeltaSegment>> segments_;
  // Raw views of *base_ (accessor hot path skips the shared_ptr hop).
  const Side* bout_ = nullptr;
  const Side* bin_ = nullptr;
  int base_num_nodes_ = 0;
  int base_num_edges_ = 0;
  Overlay out_overlay_, in_overlay_;
  int64_t delta_edges_ = 0;
  // True for every delta snapshot (even a node-only one with an empty
  // overlay): accessors must bounds-guard nodes the base doesn't cover.
  bool overlay_path_ = false;

  // Snapshot-local statistics (exact for the logical view).
  std::vector<int64_t> label_counts_;
  std::vector<int64_t> label_source_counts_, label_target_counts_;

  // Degree permutations, counted on a base as it is sealed and on a delta
  // snapshot by its first NodesBy*Degree() call (EnsureDegreeOrders).
  mutable std::vector<NodeId> by_degree_;
  mutable std::vector<NodeId> by_in_degree_;
  mutable std::mutex orders_mutex_;
  mutable std::atomic<bool> orders_ready_{false};
};

}  // namespace ecrpq

#endif  // ECRPQ_GRAPH_INDEX_H_
