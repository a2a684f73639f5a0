// Textual import/export for graph databases.
//
// Text format (one directive per line, '#' comments):
//   label <name>                 (declares an alphabet symbol; optional)
//   edge <from> <label> <to>     (nodes are auto-created)
//   node <name>
// Symbol ids are assigned in interning order, so `label` directives pin
// the id of every symbol — including ones no edge uses — making
// GraphToText → ParseGraphText preserve symbol ids exactly. Files without
// `label` lines still parse; their symbols are numbered by first edge use.
// DOT export is provided for visual inspection of small graphs.

#ifndef ECRPQ_GRAPH_IO_H_
#define ECRPQ_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "graph/graph.h"
#include "graph/index.h"
#include "util/status.h"

namespace ecrpq {

/// Parses the line-oriented text format into a graph over `alphabet`
/// (created fresh when null).
Result<GraphDb> ParseGraphText(std::string_view text,
                               AlphabetPtr alphabet = nullptr);

/// Serializes to the line-oriented text format. Round-trips with
/// ParseGraphText: node names, the edge multiset, and alphabet symbol
/// ids (via `label` directives in id order) are all preserved.
/// Anonymous nodes materialize as their "n<id>" display names —
/// disambiguated with trailing underscores if a named node owns that
/// string, so distinct nodes never merge on re-import.
std::string GraphToText(const GraphDb& graph);

/// GraphToText of the graph whose names and labels are in `catalog` and
/// whose edges are in `snapshot` (a Database's graph() and
/// graph_index()). Each node's edges come in (label, target) order.
std::string GraphToText(const GraphDb& catalog, const GraphIndex& snapshot);

/// Graphviz DOT rendering.
std::string GraphToDot(const GraphDb& graph);

// ---- bulk edge-list format -------------------------------------------------
//
// The `edge`-directive format above creates nodes by name and edges one at
// a time — fine for serving-layer fixtures, hopeless for multi-million-edge
// loads (per-line keyword dispatch, a name hash probe per endpoint, and
// per-edge adjacency reallocation). The edge-list format is the bulk
// counterpart, for anonymous graphs at generator scale:
//
//   ecrpq-edgelist <num_nodes> <num_edges> <num_labels>
//   <label name>                (num_labels lines, pinning symbol ids 0..)
//   <from> <label> <to>         (num_edges lines, integer ids)
//
// '#' starts a comment anywhere; blank lines are skipped. The declared
// counts let the loader reserve everything up front and hand the whole
// edge array to GraphDb::FromEdges (size-then-fill, no per-edge
// reallocation); integers are parsed with std::from_chars. The edge count
// is checked against the input size first (an edge takes at least 6
// bytes), so a forged header cannot make the loader over-allocate. The
// node count cannot be bounded that way — isolated nodes take no bytes —
// so it is trusted up to INT32_MAX: a short input may still declare
// nodes worth gigabytes of adjacency and name slots. Node names are
// NOT preserved (every node imports as anonymous) — by design: the format
// targets the synthetic large tiers and external bulk dumps, where names
// are dead weight. GraphToEdgeListText -> ParseEdgeListText round-trips
// node count, symbol ids, and the exact per-node edge order.

/// Parses the bulk edge-list format into a graph over `alphabet` (created
/// fresh when null; listed labels are interned in declaration order).
Result<GraphDb> ParseEdgeListText(std::string_view text,
                                  AlphabetPtr alphabet = nullptr);

/// Serializes to the bulk edge-list format (out-edges in per-node CSR
/// order, one "<from> <label> <to>" line per edge).
std::string GraphToEdgeListText(const GraphDb& graph);

}  // namespace ecrpq

#endif  // ECRPQ_GRAPH_IO_H_
