// Σ-labeled graph databases (Section 2 of the paper).
//
// A graph database G = (V, E) with E ⊆ V × Σ × V. Nodes carry optional
// user-facing names; edges are labeled with alphabet symbols. A graph can be
// viewed as an NFA over Σ without initial/final states (the paper uses this
// equivalence throughout); `ToNfa` realizes that view with a chosen set of
// initial/final nodes.
// Each edge is stored once, in its source's out-list (GraphIndex derives
// the in-side), and each node name once, in a table of names by id.
//
// A GraphDb is the builder of a graph: generators, loaders and seeds fill
// one, and GraphIndex::Build turns it into the CSR snapshot the engines
// read. A Database keeps no out-lists at all: the snapshot is its graph,
// and TakeAdjacency() leaves the GraphDb as the catalog beside it, holding
// names, labels, node and edge counts and version() only; reading edges
// through a catalog aborts in every build type.

#ifndef ECRPQ_GRAPH_GRAPH_H_
#define ECRPQ_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

  /// Outgoing (label, target) lists, by node.
  using OutLists = std::vector<std::vector<std::pair<Symbol, NodeId>>>;

  /// Gives up every out-list and keeps names, labels, num_edges() and
  /// version(): what is left is the catalog of a graph whose edges live
  /// elsewhere (a Database's GraphIndex snapshot). A catalog still adds
  /// nodes; its edge changes are recorded with CountEdges. Out, HasEdge,
  /// AddEdge, AddEdges, RemoveEdge and ToNfa need the out-lists and abort
  /// on a catalog. The caller decides where the returned lists are freed.
  [[nodiscard]] OutLists TakeAdjacency() {
    has_adjacency_ = false;
    return std::exchange(out_, {});
  }
  bool has_adjacency() const { return has_adjacency_; }

  /// Records on a catalog that `added` edges were added and `removed`
  /// removed (the caller keeps the edges and checked that the removed ones
  /// existed): num_edges() and version() move as AddEdge and RemoveEdge
  /// would move them, one version step per edge.
  void CountEdges(int added, int removed) {
    ECRPQ_DCHECK(!has_adjacency_);
    num_edges_ += added - removed;
    version_ += static_cast<uint64_t>(added) + removed;
  }

  /// Gives a catalog its out-lists back from a caller's own encoding:
  /// every node v, in id order, gets degree(v) edges, each the (label,
  /// target) pair the next next_arc() call returns. The degrees must sum
  /// to num_edges(). The graph is the same, so version() does not move.
  template <typename DegreeFn, typename ArcFn>
  void RestoreAdjacency(DegreeFn degree, ArcFn next_arc) {
    ECRPQ_DCHECK(!has_adjacency_);
    out_.resize(names_.size());
    int64_t restored = 0;
    for (NodeId v = 0; v < num_nodes(); ++v) {
      const int d = degree(v);
      out_[v].reserve(d);
      for (int k = 0; k < d; ++k) out_[v].push_back(next_arc());
      restored += d;
    }
    ECRPQ_DCHECK(restored == num_edges_);
    has_adjacency_ = true;
  }

  /// One-shot bulk construction: `num_nodes` anonymous nodes plus
  /// `edges`, built through the size-then-fill path. The workhorse of the
  /// large-graph generators and the edge-list loader (graph/io.h).
  static GraphDb FromEdges(AlphabetPtr alphabet, int num_nodes,
                           const std::vector<Edge>& edges);

  int num_nodes() const { return static_cast<int>(names_.size()); }
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
    CheckAdjacency();
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
  /// Aborts, in every build type, when the out-lists were given up: a
  /// catalog answering Out or HasEdge with empty rows would read as a
  /// graph without edges.
  void CheckAdjacency() const {
    if (!has_adjacency_) [[unlikely]] AbortNoAdjacency();
  }
  [[noreturn]] static void AbortNoAdjacency();
  static uint32_t NameHash(std::string_view name);
  /// The slot holding `name`, or the empty slot where it would go.
  size_t FindSlot(std::string_view name, uint32_t hash) const;
  void GrowNameTable();

  AlphabetPtr alphabet_;
  OutLists out_;
  bool has_adjacency_ = true;       // false once TakeAdjacency ran
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
