#include "wal/wal_format.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/crc32c.h"
#include "util/page_alloc.h"

namespace ecrpq {

namespace {

char* StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 4;
}

uint32_t LoadU32(const char* p) {
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return r;
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out->append(buf, 4);
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked little-endian reader over a payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool U32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return ok_ = false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  /// A length-prefixed string, viewed in place.
  bool Str(std::string_view* s) {
    uint32_t n;
    if (!U32(&n)) return false;
    if (data_.size() - pos_ < n) return ok_ = false;
    *s = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool Str(std::string* s) {
    std::string_view view;
    if (!Str(&view)) return false;
    s->assign(view);
    return true;
  }

  bool ok() const { return ok_; }
  bool done() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  /// The unread bytes.
  std::string_view rest() const { return data_.substr(pos_); }

  /// Reads an element count whose elements occupy at least
  /// `min_element_bytes` each. Rejecting counts the remaining bytes
  /// cannot possibly hold keeps a corrupt count from driving a huge
  /// allocation before the per-element reads fail.
  bool Count(size_t min_element_bytes, uint32_t* n) {
    if (!U32(n)) return false;
    if (*n > remaining() / min_element_bytes) return ok_ = false;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status DecodeError(const char* what) {
  return Status::InvalidArgument(std::string("wal payload decode: ") + what);
}

void PutEdges(std::string* out, const std::vector<Edge>& edges) {
  PutU32(out, static_cast<uint32_t>(edges.size()));
  for (const Edge& e : edges) {
    PutU32(out, static_cast<uint32_t>(e.from));
    PutU32(out, static_cast<uint32_t>(e.label));
    PutU32(out, static_cast<uint32_t>(e.to));
  }
}

bool GetEdges(PayloadReader* reader, std::vector<Edge>* edges) {
  uint32_t n;
  if (!reader->Count(12, &n)) return false;  // 3 x u32 per edge
  edges->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t from, label, to;
    if (!reader->U32(&from) || !reader->U32(&label) || !reader->U32(&to)) {
      return false;
    }
    edges->push_back({static_cast<NodeId>(from), static_cast<Symbol>(label),
                      static_cast<NodeId>(to)});
  }
  return true;
}

}  // namespace

std::string EncodeMutationPayload(const GraphMutation& mutation) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(mutation.add_nodes.size()));
  for (const std::string& name : mutation.add_nodes) PutStr(&out, name);
  PutU32(&out, static_cast<uint32_t>(mutation.add_edges.size()));
  for (const EdgeSpec& spec : mutation.add_edges) {
    PutStr(&out, spec.from);
    PutStr(&out, spec.label);
    PutStr(&out, spec.to);
  }
  PutU32(&out, static_cast<uint32_t>(mutation.remove_edges.size()));
  for (const EdgeSpec& spec : mutation.remove_edges) {
    PutStr(&out, spec.from);
    PutStr(&out, spec.label);
    PutStr(&out, spec.to);
  }
  return out;
}

Status DecodeMutationPayload(std::string_view payload, GraphMutation* out) {
  PayloadReader reader(payload);
  uint32_t n;
  // Counts are cross-checked against the remaining bytes (4-byte
  // length prefix per string, 3 strings per edge spec) before any
  // allocation sized by them.
  if (!reader.Count(4, &n)) return DecodeError("bad add_nodes count");
  out->add_nodes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!reader.Str(&out->add_nodes[i])) return DecodeError("bad add_node");
  }
  if (!reader.Count(12, &n)) return DecodeError("bad add_edges count");
  out->add_edges.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    EdgeSpec& spec = out->add_edges[i];
    if (!reader.Str(&spec.from) || !reader.Str(&spec.label) ||
        !reader.Str(&spec.to)) {
      return DecodeError("bad add_edge");
    }
  }
  if (!reader.Count(12, &n)) return DecodeError("bad remove_edges count");
  out->remove_edges.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    EdgeSpec& spec = out->remove_edges[i];
    if (!reader.Str(&spec.from) || !reader.Str(&spec.label) ||
        !reader.Str(&spec.to)) {
      return DecodeError("bad remove_edge");
    }
  }
  if (!reader.done()) return DecodeError("trailing bytes");
  return Status::OK();
}

std::string EncodeEdgeDeltaPayload(const std::vector<Edge>& add,
                                   const std::vector<Edge>& remove) {
  std::string out;
  PutEdges(&out, add);
  PutEdges(&out, remove);
  return out;
}

Status DecodeEdgeDeltaPayload(std::string_view payload, std::vector<Edge>* add,
                              std::vector<Edge>* remove) {
  PayloadReader reader(payload);
  if (!GetEdges(&reader, add)) return DecodeError("bad edge-delta adds");
  if (!GetEdges(&reader, remove)) return DecodeError("bad edge-delta removes");
  if (!reader.done()) return DecodeError("trailing bytes");
  return Status::OK();
}

// ---- checkpoint codec ----

namespace {

// The retired text format began "ecrpq-checkpoint 1\n"; it fails the
// magic check.
constexpr char kCheckpointMagic[8] = {'E', 'C', 'R', 'P', 'Q', 'C', 'K', 'P'};
constexpr uint32_t kCheckpointVersion = 2;
// Magic, version, and the node, edge, label and named-node counts.
constexpr size_t kCheckpointHeader = sizeof(kCheckpointMagic) + 5 * 4;
constexpr size_t kCheckpointCrc = 4;

Status CheckpointError(const char* what) {
  return Status::InvalidArgument(std::string("corrupt checkpoint: ") + what);
}

// The image's size in bytes and the named-node count its header
// declares.
struct CheckpointLayout {
  size_t size = 0;
  uint32_t num_named = 0;
};

CheckpointLayout Measure(const GraphDb& graph) {
  const Alphabet& alphabet = graph.alphabet();
  // The catalog's edge count is the snapshot's: the caller passes both of
  // one graph.
  CheckpointLayout layout;
  layout.size = kCheckpointHeader +
                4 * static_cast<size_t>(graph.num_nodes()) +
                8 * static_cast<size_t>(graph.num_edges()) + kCheckpointCrc;
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    layout.size += 4 + alphabet.Label(s).size();
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::string_view name = graph.StoredName(v);
    if (name.empty()) continue;
    ++layout.num_named;
    layout.size += 8 + name.size();
  }
  return layout;
}

// Fills one page-mapped chunk at a time and appends each full chunk to the
// file, folding it into the running CRC on the way. After a failed Append
// the rest of the image is still formatted but no longer written.
class ChunkWriter {
 public:
  explicit ChunkWriter(WritableFile* file)
      : file_(file), chunk_(kCheckpointChunkBytes) {}

  void U32(uint32_t v) {
    if (chunk_.size() - used_ >= 4) {
      StoreU32(chunk_.data() + used_, v);
      used_ += 4;
      return;
    }
    char buf[4];
    StoreU32(buf, v);
    Bytes(buf, 4);
  }

  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  void Bytes(const char* p, size_t n) {
    while (n > 0) {
      if (used_ == chunk_.size()) Flush();
      const size_t k = std::min(n, chunk_.size() - used_);
      std::memcpy(chunk_.data() + used_, p, k);
      used_ += k;
      p += k;
      n -= k;
    }
  }

  /// Writes the masked CRC of every byte written so far and appends the
  /// last chunk. Returns the first Append failure.
  Status Finish() {
    crc_ = crc32c::Extend(crc_, chunk_.data(), used_);
    sealed_ = true;
    U32(crc32c::Mask(crc_));
    Flush();
    return status_;
  }

 private:
  void Flush() {
    if (!sealed_) crc_ = crc32c::Extend(crc_, chunk_.data(), used_);
    if (status_.ok()) status_ = file_->Append(chunk_.data(), used_);
    used_ = 0;
  }

  WritableFile* file_;
  PageVector<char> chunk_;
  size_t used_ = 0;
  uint32_t crc_ = 0;
  bool sealed_ = false;  // crc_ covers the body; the CRC itself follows
  Status status_;
};

// An in-memory WritableFile for the one-shot EncodeCheckpoint.
class StringFile : public WritableFile {
 public:
  explicit StringFile(std::string* out) : out_(out) {}
  Status Append(const void* data, size_t n) override {
    out_->append(static_cast<const char*>(data), n);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::string* out_;
};

}  // namespace

Status EncodeCheckpoint(const GraphDb& graph, const GraphIndex& snapshot,
                        WritableFile* file) {
  ECRPQ_DCHECK(snapshot.num_nodes() == graph.num_nodes() &&
               snapshot.num_edges() == graph.num_edges());
  const Alphabet& alphabet = graph.alphabet();
  const NodeId num_nodes = graph.num_nodes();
  ChunkWriter w(file);
  w.Bytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.U32(kCheckpointVersion);
  w.U32(static_cast<uint32_t>(num_nodes));
  w.U32(static_cast<uint32_t>(graph.num_edges()));
  w.U32(static_cast<uint32_t>(alphabet.size()));
  w.U32(Measure(graph).num_named);
  for (Symbol s = 0; s < alphabet.size(); ++s) w.Str(alphabet.Label(s));
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::string_view name = graph.StoredName(v);
    if (name.empty()) continue;
    w.U32(static_cast<uint32_t>(v));
    w.Str(name);
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    w.U32(static_cast<uint32_t>(snapshot.out_degree(v)));
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::span<const Symbol> labels = snapshot.OutLabels(v);
    const std::span<const NodeId> targets = snapshot.OutTargets(v);
    for (size_t i = 0; i < labels.size(); ++i) {
      w.U32(static_cast<uint32_t>(labels[i]));
      w.U32(static_cast<uint32_t>(targets[i]));
    }
  }
  return w.Finish();
}

std::string EncodeCheckpoint(const GraphDb& graph,
                             const GraphIndex& snapshot) {
  const size_t size = Measure(graph).size;
  std::string out;
  out.reserve(size);
  StringFile file(&out);
  Status st = EncodeCheckpoint(graph, snapshot, &file);
  ECRPQ_DCHECK(st.ok() && out.size() == size);
  return out;
}

Result<DecodedCheckpoint> DecodeCheckpoint(std::string_view image) {
  if (image.size() < sizeof(kCheckpointMagic) ||
      std::memcmp(image.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
          0) {
    return Status::InvalidArgument("unsupported checkpoint format");
  }
  if (image.size() < kCheckpointHeader + kCheckpointCrc) {
    return CheckpointError("truncated header");
  }
  const std::string_view body = image.substr(0, image.size() - kCheckpointCrc);
  if (crc32c::Unmask(LoadU32(body.data() + body.size())) !=
      crc32c::Value(body.data(), body.size())) {
    return CheckpointError("crc mismatch");
  }

  // The header reads cannot fail: its size was checked above.
  PayloadReader reader(body.substr(sizeof(kCheckpointMagic)));
  uint32_t version = 0, num_nodes = 0, num_edges = 0, num_labels = 0;
  uint32_t num_named = 0;
  reader.U32(&version);
  reader.U32(&num_nodes);
  reader.U32(&num_edges);
  reader.U32(&num_labels);
  reader.U32(&num_named);
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  // Counts are bounded before anything is allocated: ids are NodeId-
  // ranged, a GraphDb counts edges in an int, and every label and named
  // node costs at least its length prefix (plus an id), every node its
  // out-degree and every edge its (label, to) pair.
  if (num_nodes > static_cast<uint32_t>(std::numeric_limits<NodeId>::max()) ||
      num_edges > static_cast<uint32_t>(std::numeric_limits<int>::max()) ||
      num_named > num_nodes) {
    return CheckpointError("bad counts");
  }
  const uint64_t adjacency_bytes = 4 * uint64_t{num_nodes} +
                                   8 * uint64_t{num_edges};
  if (4 * uint64_t{num_labels} + 8 * uint64_t{num_named} + adjacency_bytes >
      reader.remaining()) {
    return CheckpointError("counts exceed the checkpoint size");
  }

  auto alphabet = std::make_shared<Alphabet>();
  for (uint32_t i = 0; i < num_labels; ++i) {
    std::string_view label;
    if (!reader.Str(&label)) return CheckpointError("bad label");
    if (alphabet->Intern(label) != static_cast<Symbol>(i)) {
      return CheckpointError("duplicate label");
    }
  }

  // Named nodes in increasing id order; the anonymous ones between them
  // are created in bulk. The graph is a catalog from the start: its edges
  // go into the rows below.
  GraphDb graph(alphabet);
  graph.TakeAdjacency();
  for (uint32_t i = 0; i < num_named; ++i) {
    uint32_t id;
    std::string_view name;
    if (!reader.U32(&id) || !reader.Str(&name)) {
      return CheckpointError("bad node name");
    }
    const uint32_t next = static_cast<uint32_t>(graph.num_nodes());
    if (id < next || id >= num_nodes || name.empty()) {
      return CheckpointError("bad node name");
    }
    if (id > next) graph.AddNodes(static_cast<int>(id - next));
    if (graph.AddNode(name) != static_cast<NodeId>(id)) {
      return CheckpointError("duplicate node name");
    }
  }
  graph.AddNodes(static_cast<int>(num_nodes) - graph.num_nodes());

  if (reader.remaining() != adjacency_bytes) {
    return CheckpointError("adjacency size mismatch");
  }
  const char* degrees = reader.rest().data();
  const char* arcs = degrees + 4 * size_t{num_nodes};
  uint64_t degree_sum = 0;
  for (uint32_t v = 0; v < num_nodes; ++v) {
    degree_sum += LoadU32(degrees + 4 * size_t{v});
  }
  if (degree_sum != num_edges) {
    return CheckpointError("out-degrees do not sum to the edge count");
  }

  // The rows go straight from the image into the base's columns.
  GraphIndex::OutRows rows;
  rows.offsets.resize(size_t{num_nodes} + 1);
  rows.offsets[0] = 0;
  for (uint32_t v = 0; v < num_nodes; ++v) {
    rows.offsets[v + 1] =
        rows.offsets[v] +
        static_cast<int32_t>(LoadU32(degrees + 4 * size_t{v}));
  }
  rows.labels.resize(num_edges);
  rows.targets.resize(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i, arcs += 8) {
    const uint32_t label = LoadU32(arcs);
    const uint32_t to = LoadU32(arcs + 4);
    if (label >= num_labels || to >= num_nodes) {
      return CheckpointError("edge out of range");
    }
    rows.labels[i] = static_cast<Symbol>(label);
    rows.targets[i] = static_cast<NodeId>(to);
  }
  graph.CountEdges(static_cast<int>(num_edges), 0);
  return DecodedCheckpoint{std::move(graph), std::move(rows)};
}

}  // namespace ecrpq
