// Σ-labeled graph databases (Section 2 of the paper).
//
// A graph database G = (V, E) with E ⊆ V × Σ × V. Nodes carry optional
// user-facing names; edges are labeled with alphabet symbols. A graph can be
// viewed as an NFA over Σ without initial/final states (the paper uses this
// equivalence throughout); `ToNfa` realizes that view with a chosen set of
// initial/final nodes.
// Each edge is stored once, in its source's out-list (GraphIndex derives
// the in-side), and each node name once, in a table of names by id.

#ifndef ECRPQ_GRAPH_GRAPH_H_
#define ECRPQ_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "automata/alphabet.h"
#include "automata/nfa.h"
#include "util/status.h"

namespace ecrpq {

/// Dense node id within a GraphDb.
using NodeId = int32_t;

/// A directed labeled edge (from, label, to).
struct Edge {
  NodeId from;
  Symbol label;
  NodeId to;

  bool operator==(const Edge& other) const = default;
};

/// One edge of a GraphMutation, endpoints and label by name. Unknown
/// node names are created; an unknown label is interned on add (but
/// never on remove — removing a never-seen label is a no-op skip).
struct EdgeSpec {
  std::string from;
  std::string label;
  std::string to;
};

/// A batched write: nodes to create plus edges to add/remove, applied
/// atomically under the writer lock by Database::ApplyDelta. Lives at
/// the graph layer (not api/) so the write-ahead log (src/wal/) can
/// serialize and replay batches without depending on the session
/// facade. Name-level resolution is deterministic — replaying the same
/// mutation sequence against the same starting graph assigns identical
/// node ids and symbols — which is what makes a logical WAL sound.
struct GraphMutation {
  /// Node names to create up front (empty string = anonymous node).
  /// Names that already exist are left as-is.
  std::vector<std::string> add_nodes;
  std::vector<EdgeSpec> add_edges;
  /// Each spec removes ONE instance of a matching edge (multiset
  /// semantics); specs matching nothing are counted, not errors.
  std::vector<EdgeSpec> remove_edges;
};

/// A finite Σ-labeled directed graph database.
class GraphDb {
 public:
  /// Creates an empty graph over `alphabet` (shared; may be grown by
  /// AddEdge with unseen labels).
  explicit GraphDb(AlphabetPtr alphabet);

  /// Creates an empty graph with a fresh alphabet.
  GraphDb();

  /// Adds an anonymous node.
  NodeId AddNode();

  /// Adds a named node (names must be unique; returns existing id if the
  /// name is already present). An empty name adds an anonymous node.
  NodeId AddNode(std::string_view name);

  /// Appends `count` anonymous nodes in one shot; returns the first new
  /// id. Bulk-construction companion of AddEdges.
  NodeId AddNodes(int count);

  /// Looks up a node by name (no allocation).
  std::optional<NodeId> FindNode(std::string_view name) const;

  /// Node name, or "n<id>" for anonymous nodes.
  std::string NodeName(NodeId node) const;

  /// The name `node` was created with; empty for anonymous nodes (so,
  /// unlike NodeName, a name that merely looks like "n<id>" is never
  /// synthesized).
  const std::string& StoredName(NodeId node) const { return names_[node]; }

  /// Adds an edge with an already-interned label symbol.
  void AddEdge(NodeId from, Symbol label, NodeId to);

  /// Adds an edge, interning `label` into the alphabet if needed.
  void AddEdge(NodeId from, std::string_view label, NodeId to);

  /// Removes ONE instance of the edge (from, label, to) — edges form a
  /// multiset, so a duplicate edge survives a single removal. Returns
  /// false (and changes nothing) when no such edge exists. Per-node
  /// adjacency order of the remaining edges is preserved.
  bool RemoveEdge(NodeId from, Symbol label, NodeId to);

  /// Bulk-adds `edges` (already-interned labels, existing node ids) with
  /// size-then-fill adjacency construction: one degree-counting pass, one
  /// exact reservation per touched node, one fill pass — no per-edge
  /// vector reallocation. Equivalent to calling AddEdge per element in
  /// order (per-node adjacency order is identical), but O(V + E) with
  /// one allocation per touched node instead of the amortized-doubling
  /// churn that dominates multi-million-edge loads.
  void AddEdges(const std::vector<Edge>& edges);

  /// Bulk-appends out-edges from a caller's own encoding, with no edge
  /// list in between (the checkpoint loader's path): every node v, in id
  /// order, gets degree(v) edges, each the (label, target) pair the next
  /// next_arc() call returns — interned labels and existing node ids only.
  /// Reserves each row exactly and bumps version() once, like AddEdges.
  template <typename DegreeFn, typename ArcFn>
  void AppendOutRows(DegreeFn degree, ArcFn next_arc) {
    for (NodeId v = 0; v < num_nodes(); ++v) {
      const int d = degree(v);
      if (d == 0) continue;
      std::vector<std::pair<Symbol, NodeId>>& row = out_[v];
      row.reserve(row.size() + d);
      for (int k = 0; k < d; ++k) row.push_back(next_arc());
      num_edges_ += d;
    }
    ++version_;
  }

  /// One-shot bulk construction: `num_nodes` anonymous nodes plus
  /// `edges`, built through the size-then-fill path. The workhorse of the
  /// large-graph generators and the edge-list loader (graph/io.h).
  static GraphDb FromEdges(AlphabetPtr alphabet, int num_nodes,
                           const std::vector<Edge>& edges);

  int num_nodes() const { return static_cast<int>(out_.size()); }
  int num_edges() const { return num_edges_; }

  /// Monotone mutation counter: bumped by every node/edge addition and
  /// every removal. Snapshots (GraphIndex) record the version they were
  /// built at, which makes staleness checks sound even for mutation
  /// sequences that leave the node/edge counts unchanged (e.g. one add
  /// plus one remove).
  uint64_t version() const { return version_; }

  const Alphabet& alphabet() const { return *alphabet_; }
  const AlphabetPtr& alphabet_ptr() const { return alphabet_; }

  /// Outgoing (label, target) pairs of `node`, in insertion order.
  const std::vector<std::pair<Symbol, NodeId>>& Out(NodeId node) const {
    return out_[node];
  }

  /// True if the edge (from, label, to) exists.
  bool HasEdge(NodeId from, Symbol label, NodeId to) const;

  /// The graph as an NFA over its alphabet with the given initial and
  /// accepting node sets (paper: "a graph database can be naturally viewed
  /// as an NFA"). States coincide with node ids.
  Nfa ToNfa(const std::vector<NodeId>& initial,
            const std::vector<NodeId>& accepting) const;

  /// NFA view where every node is both initial and accepting.
  Nfa ToNfaAllStates() const;

 private:
  static uint32_t NameHash(std::string_view name);
  /// The slot holding `name`, or the empty slot where it would go.
  size_t FindSlot(std::string_view name, uint32_t hash) const;
  void GrowNameTable();

  AlphabetPtr alphabet_;
  std::vector<std::vector<std::pair<Symbol, NodeId>>> out_;
  std::vector<std::string> names_;  // empty string = anonymous
  // Open-addressing name table over names_: each slot holds
  // hash32 << 32 | (id + 1), 0 = empty. Power-of-two size, at most half
  // full; growth rehashes the stored hashes, never the names.
  std::vector<uint64_t> name_slots_;
  size_t num_named_ = 0;
  int num_edges_ = 0;
  uint64_t version_ = 0;
};

}  // namespace ecrpq

#endif  // ECRPQ_GRAPH_GRAPH_H_
