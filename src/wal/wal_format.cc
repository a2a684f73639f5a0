#include "wal/wal_format.h"

#include <cstring>
#include <limits>

#include "util/crc32c.h"

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

char* StoreStr(char* p, const std::string& s) {
  p = StoreU32(p, static_cast<uint32_t>(s.size()));
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

Status CheckpointError(const char* what) {
  return Status::InvalidArgument(std::string("corrupt checkpoint: ") + what);
}

}  // namespace

std::string EncodeCheckpoint(const GraphDb& graph) {
  const Alphabet& alphabet = graph.alphabet();
  const NodeId num_nodes = graph.num_nodes();

  // Sizing pass, so the image is allocated once at its exact length.
  size_t size = kCheckpointHeader + 4 * static_cast<size_t>(num_nodes) +
                8 * static_cast<size_t>(graph.num_edges()) + kCheckpointCrc;
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    size += 4 + alphabet.Label(s).size();
  }
  uint32_t num_named = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::string& name = graph.StoredName(v);
    if (name.empty()) continue;
    ++num_named;
    size += 8 + name.size();
  }

  std::string out(size, '\0');
  char* p = out.data();
  std::memcpy(p, kCheckpointMagic, sizeof(kCheckpointMagic));
  p += sizeof(kCheckpointMagic);
  p = StoreU32(p, kCheckpointVersion);
  p = StoreU32(p, static_cast<uint32_t>(num_nodes));
  p = StoreU32(p, static_cast<uint32_t>(graph.num_edges()));
  p = StoreU32(p, static_cast<uint32_t>(alphabet.size()));
  p = StoreU32(p, num_named);
  for (Symbol s = 0; s < alphabet.size(); ++s) {
    p = StoreStr(p, alphabet.Label(s));
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::string& name = graph.StoredName(v);
    if (name.empty()) continue;
    p = StoreU32(p, static_cast<uint32_t>(v));
    p = StoreStr(p, name);
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    p = StoreU32(p, static_cast<uint32_t>(graph.Out(v).size()));
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (const auto& [label, to] : graph.Out(v)) {
      p = StoreU32(p, static_cast<uint32_t>(label));
      p = StoreU32(p, static_cast<uint32_t>(to));
    }
  }
  const size_t body = size - kCheckpointCrc;
  ECRPQ_DCHECK(p == out.data() + body);
  StoreU32(p, crc32c::Mask(crc32c::Value(out.data(), body)));
  return out;
}

Result<GraphDb> DecodeCheckpoint(std::string_view image) {
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
  // are created in bulk.
  GraphDb graph(alphabet);
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

  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint32_t v = 0; v < num_nodes; ++v) {
    for (uint32_t k = LoadU32(degrees + 4 * size_t{v}); k > 0; --k) {
      const uint32_t label = LoadU32(arcs);
      const uint32_t to = LoadU32(arcs + 4);
      arcs += 8;
      if (label >= num_labels || to >= num_nodes) {
        return CheckpointError("edge out of range");
      }
      edges.push_back({static_cast<NodeId>(v), static_cast<Symbol>(label),
                       static_cast<NodeId>(to)});
    }
  }
  graph.AddEdges(edges);
  return graph;
}

}  // namespace ecrpq
