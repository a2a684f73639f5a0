// Serialization of WAL record payloads and checkpoint snapshots.
//
// Two record payloads (see wal.h for the framing):
//
//   kMutation  — a name-level GraphMutation. Replaying it through
//                Database::ApplyDelta re-resolves names against the
//                recovered graph; name resolution is deterministic, so
//                the replayed graph is identical to the original.
//   kEdgeDelta — an id-level add/remove batch (u32 triples). Valid to
//                log because the checkpoint codec below round-trips
//                node ids and symbol ids exactly.
//
// The checkpoint is a binary image of a graph — its catalog (a GraphDb's
// names and labels) and its snapshot's out-rows — that, unlike
// graph/io.h's GraphToText, preserves *anonymity*: an anonymous node
// has no name entry, so replaying a post-checkpoint mutation that
// mentions "n5" resolves exactly as it did originally (creating a node,
// not aliasing node 5). Node ids, symbol ids, names, and every edge
// round-trip, and since every string is length-prefixed a name or label
// may hold any bytes (spaces, newlines, NULs).

#ifndef ECRPQ_WAL_WAL_FORMAT_H_
#define ECRPQ_WAL_WAL_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/index.h"
#include "util/io.h"
#include "util/page_alloc.h"
#include "util/status.h"

namespace ecrpq {

std::string EncodeMutationPayload(const GraphMutation& mutation);
Status DecodeMutationPayload(std::string_view payload, GraphMutation* out);

std::string EncodeEdgeDeltaPayload(const std::vector<Edge>& add,
                                   const std::vector<Edge>& remove);
Status DecodeEdgeDeltaPayload(std::string_view payload,
                              std::vector<Edge>* add,
                              std::vector<Edge>* remove);

/// Checkpoint image, little-endian, allocated at its exact size:
///
///   "ECRPQCKP" | u32 version (2)
///   u32 num_nodes | u32 num_edges | u32 num_labels | u32 num_named
///   num_labels x (u32 len | bytes)          labels in symbol order
///   num_named  x (u32 id | u32 len | bytes) named nodes, ids increasing
///   num_nodes  x u32 out-degree
///   num_edges  x (u32 label | u32 to)       rows in node order
///   u32 crc32c (masked, see util/crc32c.h) of every preceding byte
///
/// Decode checks the magic and the CRC before anything else, bounds
/// every count by the bytes present before allocating, and rejects
/// duplicate labels or names, unordered ids, out-of-range labels or
/// targets, a degree sum other than num_edges, and trailing bytes — all
/// as InvalidArgument. The retired line-oriented text checkpoint is not
/// read: it fails as "unsupported checkpoint format".
///
/// The encoder writes each row as the snapshot holds it, in (label,
/// target) order. Images written before the snapshot was the only
/// adjacency hold rows in insertion order; the format is the same and
/// GraphIndex::FromOutRows sorts such rows when it seals them.
///
/// Encoding streams: the image is formatted into one chunk of
/// kCheckpointChunkBytes at a time, and each full chunk is folded into a
/// running CRC and appended to `file`, so no buffer of image size exists.
/// The chunk is kPageMapMinBytes (1 MiB), so it is a mapping of its own
/// (util/page_alloc.h). An image of at most one chunk is a single Append.
/// Returns the first Append failure; `file` then holds a prefix.
/// `catalog` gives the names and labels (its out-lists, if any, are not
/// read) and `snapshot` the edges; both describe the same graph.
inline constexpr size_t kCheckpointChunkBytes = kPageMapMinBytes;
Status EncodeCheckpoint(const GraphDb& catalog, const GraphIndex& snapshot,
                        WritableFile* file);
/// The same image as one string, sized exactly (tests, tools, benches).
std::string EncodeCheckpoint(const GraphDb& catalog,
                             const GraphIndex& snapshot);

/// A decoded image: the catalog (names, labels and counts, no out-lists)
/// and the out-rows, read straight from the image into the columns of
/// a base; GraphIndex::FromOutRows(catalog, std::move(rows)) seals them.
struct DecodedCheckpoint {
  GraphDb catalog;
  GraphIndex::OutRows rows;
};
Result<DecodedCheckpoint> DecodeCheckpoint(std::string_view image);

}  // namespace ecrpq

#endif  // ECRPQ_WAL_WAL_FORMAT_H_
