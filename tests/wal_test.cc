// Unit tests for the WAL building blocks: CRC32C, record framing and
// the recovery scan, payload/checkpoint codecs, segment rotation,
// corruption/torn-tail detection, fault injection, and dir locking.
// End-to-end crash/recovery behaviour lives in durability_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "reference_graph.h"
#include "snapshot_compare.h"
#include "util/crc32c.h"
#include "util/io.h"
#include "wal/durable.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

namespace ecrpq {
namespace {

// Creates (and on destruction removes) a scratch directory.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ecrpq-wal-test-XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- crc32c -----------------------------------------------------------------

TEST(Crc32c, StandardVectors) {
  // The canonical CRC32C check value.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // 32 zero bytes (iSCSI test vector).
  unsigned char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
  unsigned char ones[32];
  for (auto& b : ones) b = 0xff;
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62a8ab43u);
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

TEST(Crc32c, ExtendMatchesWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = crc32c::Extend(
        crc32c::Value(data.data(), split), data.data() + split,
        data.size() - split);
    EXPECT_EQ(partial, whole) << "split at " << split;
  }
}

// The SSE4.2 path and the slicing table agree on every length up to
// 4096 at every start alignment, and on chained Extend calls. (Where the
// CPU lacks SSE4.2, ExtendHardware is the table and this is trivial.)
TEST(Crc32c, HardwarePathMatchesTable) {
  std::mt19937 rng(17);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = buf.data() + align;
    for (size_t len = 0; len <= 4096; ++len) {
      const uint32_t init = len % 3 == 0 ? 0u : static_cast<uint32_t>(rng());
      ASSERT_EQ(crc32c::ExtendHardware(init, p, len),
                crc32c::ExtendTable(init, p, len))
          << "align " << align << " len " << len;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng() % 4097;
    const uint32_t whole = crc32c::ExtendTable(0, buf.data(), len);
    uint32_t hardware = 0, table = 0;
    for (size_t at = 0; at < len;) {
      const size_t piece = std::min<size_t>(len - at, rng() % 97);
      hardware = crc32c::ExtendHardware(hardware, buf.data() + at, piece);
      table = crc32c::ExtendTable(table, buf.data() + at, piece);
      at += piece;
    }
    ASSERT_EQ(hardware, whole) << "trial " << trial;
    ASSERT_EQ(table, whole) << "trial " << trial;
    ASSERT_EQ(crc32c::Extend(0, buf.data(), len), whole);
  }
}

TEST(Crc32c, MaskRoundTripsAndChangesValue) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

// ---- payload codecs ---------------------------------------------------------

TEST(WalFormat, MutationPayloadRoundTrip) {
  GraphMutation m;
  m.add_nodes = {"ann", "", "bob with space"};
  m.add_edges = {{"ann", "advisor", "bob with space"}, {"x", "l", "y"}};
  m.remove_edges = {{"bob with space", "advisor", "ann"}};
  GraphMutation out;
  ASSERT_TRUE(DecodeMutationPayload(EncodeMutationPayload(m), &out).ok());
  EXPECT_EQ(out.add_nodes, m.add_nodes);
  ASSERT_EQ(out.add_edges.size(), m.add_edges.size());
  for (size_t i = 0; i < m.add_edges.size(); ++i) {
    EXPECT_EQ(out.add_edges[i].from, m.add_edges[i].from);
    EXPECT_EQ(out.add_edges[i].label, m.add_edges[i].label);
    EXPECT_EQ(out.add_edges[i].to, m.add_edges[i].to);
  }
  ASSERT_EQ(out.remove_edges.size(), 1u);
  EXPECT_EQ(out.remove_edges[0].from, "bob with space");
}

TEST(WalFormat, EdgeDeltaPayloadRoundTrip) {
  std::vector<Edge> add = {{0, 1, 2}, {3, 0, 1}};
  std::vector<Edge> remove = {{2, 1, 0}};
  std::vector<Edge> add_out, remove_out;
  ASSERT_TRUE(DecodeEdgeDeltaPayload(EncodeEdgeDeltaPayload(add, remove),
                                     &add_out, &remove_out)
                  .ok());
  ASSERT_EQ(add_out.size(), 2u);
  EXPECT_EQ(add_out[1].from, 3);
  ASSERT_EQ(remove_out.size(), 1u);
  EXPECT_EQ(remove_out[0].label, Symbol{1});
}

TEST(WalFormat, DecodeRejectsGarbage) {
  GraphMutation m;
  EXPECT_FALSE(DecodeMutationPayload("not a payload", &m).ok());
  std::vector<Edge> a, r;
  EXPECT_FALSE(DecodeEdgeDeltaPayload("xyz", &a, &r).ok());
}

// ---- checkpoint codec -------------------------------------------------------

// The image of a GraphDb with out-lists: its catalog plus a snapshot
// built from it.
std::string Encode(const GraphDb& g) {
  return EncodeCheckpoint(g, *GraphIndex::Build(g));
}

// Seals a decoded image's rows into its snapshot.
GraphIndexPtr Seal(DecodedCheckpoint* decoded) {
  return GraphIndex::FromOutRows(decoded->catalog, std::move(decoded->rows));
}

TEST(WalFormat, CheckpointRoundTripPreservesAnonymity) {
  GraphDb g;
  NodeId ann = g.AddNode("ann");
  NodeId anon = g.AddNode();  // anonymous — must NOT come back named
  NodeId bob = g.AddNode("bob");
  g.AddEdge(ann, "advisor", anon);
  g.AddEdge(anon, "likes a lot", bob);  // label with spaces survives
  g.AddEdge(bob, "advisor", ann);

  auto decoded = DecodeCheckpoint(Encode(g));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const GraphDb& d = decoded.value().catalog;
  EXPECT_EQ(d.num_nodes(), g.num_nodes());
  EXPECT_EQ(d.num_edges(), g.num_edges());
  EXPECT_EQ(d.FindNode("ann"), std::optional<NodeId>(ann));
  EXPECT_EQ(d.FindNode("bob"), std::optional<NodeId>(bob));
  // The anonymous node's synthetic display name must not resolve: a
  // replayed mutation mentioning "n1" must create a NEW node, exactly
  // as it did pre-crash.
  EXPECT_EQ(d.NodeName(anon), g.NodeName(anon));
  EXPECT_FALSE(d.FindNode(d.NodeName(anon)).has_value());
  // Byte-identical re-encode: the codec is canonical.
  EXPECT_EQ(EncodeCheckpoint(d, *Seal(&decoded.value())), Encode(g));
}

TEST(WalFormat, CheckpointRejectsCorruptText) {
  GraphDb g;
  g.AddEdge(g.AddNode("a"), "l", g.AddNode("b"));
  std::string text = Encode(g);
  EXPECT_FALSE(DecodeCheckpoint("bogus header\n").ok());
  EXPECT_FALSE(DecodeCheckpoint(text + "trailing junk\n").ok());
  EXPECT_FALSE(DecodeCheckpoint(text.substr(0, text.size() / 2)).ok());
}

// Names and labels that a line- or token-oriented codec would mangle.
const std::vector<std::string>& AwkwardStrings() {
  static const std::vector<std::string> strings = {
      "n0",  "n3",         "n17",           "with space", " lead",
      "a\nb", "\n",        std::string("nul\0byte", 8), std::string(1, '\0'),
      "ünïcødé → λ",       "tab\there",     "x"};
  return strings;
}

// A random graph mixing named and anonymous nodes, with awkward names
// and labels, duplicate edges, self loops, and removals (so per-node
// out order is not insertion order).
GraphDb RandomCheckpointGraph(uint32_t seed) {
  std::mt19937 rng(seed);
  const auto& awkward = AwkwardStrings();
  GraphDb g;
  const int nodes = 1 + static_cast<int>(rng() % 40);
  for (int i = 0; i < nodes; ++i) {
    switch (rng() % 3) {
      case 0:
        g.AddNode();
        break;
      case 1:
        g.AddNode(awkward[rng() % awkward.size()]);  // may repeat a name
        break;
      default:
        g.AddNode("v" + std::to_string(rng() % 1000) + "\n" +
                  awkward[rng() % awkward.size()]);
    }
  }
  const int n = g.num_nodes();
  const int edges = static_cast<int>(rng() % 120);
  for (int i = 0; i < edges; ++i) {
    const std::string& label = awkward[rng() % awkward.size()];
    g.AddEdge(static_cast<NodeId>(rng() % n), label,
              static_cast<NodeId>(rng() % n));
  }
  for (int i = 0; i < edges / 4; ++i) {
    const NodeId from = static_cast<NodeId>(rng() % n);
    if (g.Out(from).empty()) continue;
    const auto [label, to] = g.Out(from)[rng() % g.Out(from).size()];
    g.RemoveEdge(from, label, to);
  }
  return g;
}

TEST(WalFormat, CheckpointRoundTripsRandomGraphsWithAwkwardNames) {
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GraphDb g = RandomCheckpointGraph(seed);
    const std::string image = Encode(g);
    auto decoded = DecodeCheckpoint(image);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const GraphDb& d = decoded.value().catalog;
    const GraphIndexPtr snapshot = Seal(&decoded.value());
    const GraphIndexPtr fresh = GraphIndex::Build(g);
    ASSERT_EQ(d.num_nodes(), g.num_nodes());
    ASSERT_EQ(d.num_edges(), g.num_edges());
    ASSERT_EQ(d.alphabet().size(), g.alphabet().size());
    for (Symbol s = 0; s < g.alphabet().size(); ++s) {
      EXPECT_EQ(d.alphabet().Label(s), g.alphabet().Label(s));
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(d.StoredName(v), g.StoredName(v));
      EXPECT_EQ(d.NodeName(v), g.NodeName(v));
      if (!g.StoredName(v).empty()) {
        EXPECT_EQ(d.FindNode(g.StoredName(v)), std::optional<NodeId>(v));
      }
      EXPECT_EQ(ToVec(snapshot->OutLabels(v)), ToVec(fresh->OutLabels(v)));
      EXPECT_EQ(ToVec(snapshot->OutTargets(v)),
                ToVec(fresh->OutTargets(v)));
    }
    // Anonymous nodes stay anonymous even where a real name looks like
    // the synthetic "n<id>" display name.
    for (const std::string& name : AwkwardStrings()) {
      EXPECT_EQ(d.FindNode(name), g.FindNode(name));
    }
    EXPECT_EQ(EncodeCheckpoint(d, *snapshot), image);
  }
}

// Records what a streamed checkpoint appends, call by call.
class RecordingFile : public WritableFile {
 public:
  Status Append(const void* data, size_t n) override {
    bytes.append(static_cast<const char*>(data), n);
    appends.push_back(n);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

  std::string bytes;
  std::vector<size_t> appends;
};

// GraphDb::version() after DecodeCheckpoint: one bump per AddNodes and
// AddNode call of the decoder, and one per edge the catalog counts.
uint64_t DecodedVersion(const GraphDb& g) {
  uint64_t version = 0;
  NodeId next = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.StoredName(v).empty()) continue;
    version += (v > next) + 1;
    next = v + 1;
  }
  return version + 1 + static_cast<uint64_t>(g.num_edges());
}

void ExpectStreamsLikeReference(const GraphDb& g) {
  const std::string reference = ReferenceCheckpoint(g, /*sorted_rows=*/true);
  const GraphIndexPtr fresh = GraphIndex::Build(g);
  EXPECT_EQ(EncodeCheckpoint(g, *fresh), reference);
  RecordingFile file;
  ASSERT_TRUE(EncodeCheckpoint(g, *fresh, &file).ok());
  EXPECT_EQ(file.bytes, reference);
  // Full chunks, then the rest: one Append per started chunk.
  const size_t chunks =
      (reference.size() + kCheckpointChunkBytes - 1) / kCheckpointChunkBytes;
  ASSERT_EQ(file.appends.size(), chunks);
  for (size_t i = 0; i + 1 < chunks; ++i) {
    EXPECT_EQ(file.appends[i], kCheckpointChunkBytes) << "chunk " << i;
  }
  EXPECT_EQ(file.appends.back(),
            reference.size() - (chunks - 1) * kCheckpointChunkBytes);

  auto decoded = DecodeCheckpoint(file.bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const GraphDb& d = decoded.value().catalog;
  EXPECT_EQ(d.num_edges(), g.num_edges());
  EXPECT_EQ(d.version(), DecodedVersion(g));
  const GraphIndexPtr snapshot = Seal(&decoded.value());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(d.StoredName(v), g.StoredName(v)) << v;
    ASSERT_EQ(ToVec(snapshot->OutLabels(v)), ToVec(fresh->OutLabels(v))) << v;
    ASSERT_EQ(ToVec(snapshot->OutTargets(v)), ToVec(fresh->OutTargets(v)))
        << v;
  }
}

TEST(WalFormat, StreamedCheckpointMatchesReferenceAcrossChunks) {
  {
    SCOPED_TRACE("empty graph");
    ExpectStreamsLikeReference(GraphDb());
  }
  {
    SCOPED_TRACE("a node name longer than a chunk");
    GraphDb g;
    const NodeId big =
        g.AddNode(std::string(kCheckpointChunkBytes + 1001, 'x'));
    g.AddEdge(big, "a", g.AddNode("y"));
    g.AddEdge(g.AddNode(), "b", big);
    ExpectStreamsLikeReference(g);
  }
  // Images ending just before, on and just after a chunk boundary: the
  // CRC, a length prefix and the name bytes each straddle it somewhere.
  GraphDb probe;
  probe.AddEdge(probe.AddNode("a"), "l", probe.AddNode("b"));
  const size_t one_byte_name = ReferenceCheckpoint(probe, true).size();
  for (int delta = -9; delta <= 9; ++delta) {
    SCOPED_TRACE("image size chunk + " + std::to_string(delta));
    const size_t len = kCheckpointChunkBytes + delta - one_byte_name + 1;
    GraphDb g;
    g.AddEdge(g.AddNode("a"), "l", g.AddNode(std::string(len, 'n')));
    ASSERT_EQ(ReferenceCheckpoint(g, true).size(),
              kCheckpointChunkBytes + delta);
    ExpectStreamsLikeReference(g);
  }
  {
    SCOPED_TRACE("three chunks of edges");
    auto alphabet = Alphabet::FromLabels({"a", "b", "c"});
    std::mt19937 rng(5);
    GraphDb g(alphabet);
    g.AddNodes(5000);
    std::vector<Edge> edges;
    for (int i = 0; i < 300000; ++i) {
      edges.push_back({static_cast<NodeId>(rng() % 5000),
                       static_cast<Symbol>(rng() % 3),
                       static_cast<NodeId>(rng() % 5000)});
    }
    g.AddEdges(edges);
    g.AddNode("late");
    ExpectStreamsLikeReference(g);
  }
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("awkward graph " + std::to_string(seed));
    ExpectStreamsLikeReference(RandomCheckpointGraph(seed));
  }
}

TEST(WalFormat, CheckpointRejectsEveryTruncationAndByteFlip) {
  GraphDb g;
  NodeId a = g.AddNode("a");
  NodeId anon = g.AddNode();
  NodeId b = g.AddNode("b\nc");
  g.AddEdge(a, "l", anon);
  g.AddEdge(anon, "m m", b);
  g.AddEdge(b, "l", a);
  const std::string image = Encode(g);
  ASSERT_TRUE(DecodeCheckpoint(image).ok());
  for (size_t len = 0; len < image.size(); ++len) {
    auto decoded = DecodeCheckpoint(image.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  for (size_t i = 0; i < image.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xff}) {
      std::string flipped = image;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      auto decoded = DecodeCheckpoint(flipped);
      ASSERT_FALSE(decoded.ok()) << "byte " << i << " ^ " << int{mask};
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

void OverwriteU32(std::string* image, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*image)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Re-signs a tampered image so that only the structural checks can
// reject it.
void ResealCrc(std::string* image) {
  const size_t body = image->size() - 4;
  OverwriteU32(image, body, crc32c::Mask(crc32c::Value(image->data(), body)));
}

TEST(WalFormat, CheckpointForgedCountsRejectedBeforeAllocating) {
  GraphDb g;
  g.AddEdge(g.AddNode("a"), "l", g.AddNode());
  const std::string image = Encode(g);
  // Header offsets: magic 0, version 8, nodes 12, edges 16, labels 20,
  // named 24.
  struct Forgery {
    size_t offset;
    uint32_t value;
  };
  const std::vector<std::vector<Forgery>> forgeries = {
      {{12, 0x7fffffffu}, {16, 0xffffffffu}},
      {{12, 0x7fffffffu}},
      {{12, 0x80000000u}},
      {{16, 0x7fffffffu}},
      {{20, 0xffffffffu}},
      {{24, 0x7fffffffu}},
      {{12, 0x7fffffffu}, {24, 0x7fffffffu}},
  };
  for (const auto& forgery : forgeries) {
    std::string forged = image;
    for (const Forgery& f : forgery) OverwriteU32(&forged, f.offset, f.value);
    ResealCrc(&forged);
    auto decoded = DecodeCheckpoint(forged);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message().find("crc"), std::string::npos)
        << decoded.status().message();
  }
  // Resealing an untampered image changes nothing.
  std::string resealed = image;
  ResealCrc(&resealed);
  EXPECT_TRUE(DecodeCheckpoint(resealed).ok());
}

TEST(WalFormat, CheckpointRejectsStructuralLies) {
  // Each image carries a valid CRC, so only the structural checks see
  // the problem.
  auto reject = [](std::string image, const char* why) {
    ResealCrc(&image);
    auto decoded = DecodeCheckpoint(image);
    ASSERT_FALSE(decoded.ok()) << why;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << why;
  };
  GraphDb g;
  const NodeId a = g.AddNode("a");
  const NodeId b = g.AddNode("b");
  g.AddEdge(a, "x", b);
  g.AddEdge(a, "y", b);
  std::string image = Encode(g);
  // Labels start at 28: (u32 1, "x"), (u32 1, "y").
  image[28 + 4 + 1 + 4] = 'x';
  reject(image, "duplicate label");

  image = Encode(g);
  // Named nodes follow at 38: (id 0, "a"), (id 1, "b"). Repeating the
  // first entry names no node twice, but ids must strictly increase.
  OverwriteU32(&image, 38 + 9, 0);
  image[38 + 9 + 8] = 'a';
  reject(image, "named-node entry repeated");

  image = Encode(g);
  image[38 + 9 + 8] = 'a';
  reject(image, "duplicate node name");

  image = Encode(g);
  image.erase(38 + 9 + 8, 1);
  OverwriteU32(&image, 38 + 9 + 4, 0);
  reject(image, "empty node name");

  image = Encode(g);
  // Out-degrees at 56 (node 0: 2, node 1: 0); move one edge to node 1.
  OverwriteU32(&image, 56, 1);
  OverwriteU32(&image, 60, 1);
  ResealCrc(&image);
  ASSERT_TRUE(DecodeCheckpoint(image).ok()) << "control: still consistent";
  OverwriteU32(&image, 60, 2);
  reject(image, "degree sum above the edge count");
  OverwriteU32(&image, 60, 0);
  reject(image, "degree sum below the edge count");

  image = Encode(g);
  // Edges at 64: (label, to) pairs.
  OverwriteU32(&image, 64, 2);
  reject(image, "label out of range");
  image = Encode(g);
  OverwriteU32(&image, 68, 2);
  reject(image, "target out of range");

  image = Encode(g);
  image.insert(image.size() - 4, "z");
  reject(image, "trailing byte");

  image = Encode(g);
  OverwriteU32(&image, 8, 1);
  reject(image, "unknown version");
}

TEST(WalFormat, TextCheckpointIsAnUnsupportedFormat) {
  auto decoded = DecodeCheckpoint(
      "ecrpq-checkpoint 1\ncounts 2 1 1\nl a\nn 0 x\ne 0 0 1\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported checkpoint format"),
            std::string::npos)
      << decoded.status().message();
}

// ---- recovery from insertion-ordered checkpoints ----------------------------

// Applies a logged name-level batch to a GraphDb as Database::CommitDelta
// does: nodes, then adds, then removes, each remove taking one instance
// and a remove that matches nothing skipped.
void ApplyMutation(GraphDb* g, const GraphMutation& m) {
  auto resolve = [&](const std::string& name) {
    const auto found = g->FindNode(name);
    return found.has_value() ? *found : g->AddNode(name);
  };
  for (const std::string& name : m.add_nodes) {
    if (name.empty()) {
      g->AddNode();
    } else {
      resolve(name);
    }
  }
  for (const EdgeSpec& spec : m.add_edges) {
    const NodeId from = resolve(spec.from);
    const NodeId to = resolve(spec.to);
    g->AddEdge(from, spec.label, to);
  }
  for (const EdgeSpec& spec : m.remove_edges) {
    const auto from = g->FindNode(spec.from);
    const auto to = g->FindNode(spec.to);
    const auto label = g->alphabet().Find(spec.label);
    if (from && to && label) g->RemoveEdge(*from, *label, *to);
  }
}

// A random id-level batch over g's current nodes and labels, applied to
// g: adds (one of them twice), removes of present edges, and one remove
// of an absent edge.
void RandomEdgeDelta(GraphDb* g, std::mt19937* rng, std::vector<Edge>* add,
                     std::vector<Edge>* remove) {
  const int n = g->num_nodes();
  for (int i = 0; i < 20; ++i) {
    add->push_back({static_cast<NodeId>((*rng)() % n),
                    static_cast<Symbol>((*rng)() % g->alphabet().size()),
                    static_cast<NodeId>((*rng)() % n)});
  }
  add->push_back(add->front());
  for (const Edge& e : *add) g->AddEdge(e.from, e.label, e.to);
  for (int i = 0; i < 8; ++i) {
    const NodeId from = static_cast<NodeId>((*rng)() % n);
    if (g->Out(from).empty()) continue;
    const auto [label, to] = g->Out(from)[(*rng)() % g->Out(from).size()];
    ASSERT_TRUE(g->RemoveEdge(from, label, to));
    remove->push_back({from, label, to});
  }
  const Edge absent = {0, static_cast<Symbol>(g->alphabet().size() - 1), 0};
  if (!g->HasEdge(absent.from, absent.label, absent.to)) {
    remove->push_back(absent);
  }
}

// Data dirs written before the snapshot was the only adjacency hold
// checkpoints whose rows are in insertion order. A dir with such an image
// (duplicate edges, rows reordered by removals, awkward names) and a WAL
// tail of edge deltas and a GraphMutation that removes an edge it adds
// must reopen to the graph the records describe.
TEST(WalRecovery, ReopensInsertionOrderedCheckpointsWithTail) {
  int unsorted_images = 0;
  for (uint32_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GraphDb g = RandomCheckpointGraph(seed);
    if (g.alphabet().size() == 0) g.alphabet_ptr()->Intern("x");
    bool unsorted = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::span<const GraphDb::Arc> out = g.Out(v);
      unsorted |= !std::is_sorted(out.begin(), out.end());
    }
    TempDir dir;
    {
      std::ofstream out(dir.path() + "/" + CheckpointName(0),
                        std::ios::binary);
      const std::string image = ReferenceCheckpoint(g, /*sorted_rows=*/false);
      ASSERT_EQ(image != Encode(g), unsorted);
      out << image;
      unsorted_images += unsorted;
    }

    std::mt19937 rng(seed);
    auto writer = WalWriter::Open(PosixFileSystem(), dir.path(), 64 << 20,
                                  /*first_lsn=*/1, "", 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    uint64_t lsn = 0;
    std::vector<Edge> add, remove;
    RandomEdgeDelta(&g, &rng, &add, &remove);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(writer.value()
                    ->Append(WalRecordType::kEdgeDelta,
                             EncodeEdgeDeltaPayload(add, remove), &lsn)
                    .ok());
    GraphMutation m;
    m.add_nodes = {"fresh", ""};
    m.add_edges = {{"fresh", "brand\nnew", AwkwardStrings()[3]},
                   {g.NodeName(0), "brand\nnew", "fresh"},
                   {"fresh", "brand\nnew", AwkwardStrings()[3]}};
    m.remove_edges = {{g.NodeName(0), "brand\nnew", "fresh"},
                      {"fresh", "brand\nnew", AwkwardStrings()[3]},
                      {"fresh", "never", "fresh"}};
    ApplyMutation(&g, m);
    ASSERT_TRUE(writer.value()
                    ->Append(WalRecordType::kMutation,
                             EncodeMutationPayload(m), &lsn)
                    .ok());
    add.clear();
    remove.clear();
    RandomEdgeDelta(&g, &rng, &add, &remove);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(writer.value()
                    ->Append(WalRecordType::kEdgeDelta,
                             EncodeEdgeDeltaPayload(add, remove), &lsn)
                    .ok());
    ASSERT_TRUE(writer.value()->Sync().ok());
    writer.value().reset();

    WalRecoveryInfo info;
    DatabaseOptions options;
    options.background_compaction = false;
    auto db = Database::OpenDurable(dir.path(), DurabilityOptions{}, options,
                                    GraphDb(), &info);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE(info.checkpoint_loaded);
    EXPECT_EQ(info.replayed, 3u);
    EXPECT_EQ(db.value()->applied_lsn(), 3u);
    const GraphDb& c = db.value()->graph();
    ASSERT_EQ(c.num_nodes(), g.num_nodes());
    ASSERT_EQ(c.num_edges(), g.num_edges());
    ASSERT_EQ(c.alphabet().size(), g.alphabet().size());
    for (Symbol l = 0; l < g.alphabet().size(); ++l) {
      EXPECT_EQ(c.alphabet().Label(l), g.alphabet().Label(l));
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(c.StoredName(v), g.StoredName(v));
      EXPECT_EQ(c.NodeName(v), g.NodeName(v));
    }
    for (const std::string& name : AwkwardStrings()) {
      EXPECT_EQ(c.FindNode(name), g.FindNode(name));
    }
    CheckSameView(GraphIndex::Build(g), db.value()->graph_index(),
                  /*same_version=*/false);
  }
  EXPECT_GE(unsorted_images, 5);
}

// ---- segment naming ---------------------------------------------------------

TEST(WalNames, RoundTripAndRejectForeign) {
  uint64_t lsn = 0;
  EXPECT_TRUE(ParseWalSegmentName(WalSegmentName(1), &lsn));
  EXPECT_EQ(lsn, 1u);
  EXPECT_TRUE(ParseWalSegmentName(WalSegmentName(123456789), &lsn));
  EXPECT_EQ(lsn, 123456789u);
  EXPECT_TRUE(ParseCheckpointName(CheckpointName(42), &lsn));
  EXPECT_EQ(lsn, 42u);
  EXPECT_FALSE(ParseWalSegmentName("LOCK", &lsn));
  EXPECT_FALSE(ParseWalSegmentName("checkpoint-00000000000000000001.ckpt",
                                   &lsn));
  EXPECT_FALSE(ParseCheckpointName("wal-00000000000000000001.log", &lsn));
  EXPECT_FALSE(ParseWalSegmentName("wal-abc.log", &lsn));
}

// ---- writer + scan ----------------------------------------------------------

std::string Pad(char c, size_t n) { return std::string(n, c); }

WalRecordFn NopRecordFn() {
  return [](uint64_t, WalRecordType, std::string_view) {
    return Status::OK();
  };
}

TEST(WalWriter, AppendScanRoundTrip) {
  TempDir dir;
  FileSystem* fs = PosixFileSystem();
  auto writer = WalWriter::Open(fs, dir.path(), 64 << 20, 1, "", 0);
  ASSERT_TRUE(writer.ok());
  uint64_t lsn = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.value()
                    ->Append(WalRecordType::kNoop,
                             "payload-" + std::to_string(i), &lsn)
                    .ok());
    EXPECT_EQ(lsn, static_cast<uint64_t>(i + 1));
  }
  ASSERT_TRUE(writer.value()->Sync().ok());

  std::vector<std::pair<uint64_t, std::string>> seen;
  auto stats = ScanWal(fs, dir.path(), 0,
                       [&](uint64_t l, WalRecordType, std::string_view p) {
                         seen.emplace_back(l, std::string(p));
                         return Status::OK();
                       });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().last_lsn, 10u);
  EXPECT_EQ(stats.value().delivered, 10u);
  EXPECT_FALSE(stats.value().truncated);
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen[3].second, "payload-3");

  // min_lsn skips the prefix.
  auto tail = ScanWal(fs, dir.path(), 7,
                      [&](uint64_t l, WalRecordType, std::string_view) {
                        EXPECT_GT(l, 7u);
                        return Status::OK();
                      });
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().delivered, 3u);
}

TEST(WalWriter, RotatesSegmentsAndResumesTail) {
  TempDir dir;
  FileSystem* fs = PosixFileSystem();
  uint64_t last = 0;
  {
    // Tiny segment budget: every ~100-byte record rotates.
    auto writer = WalWriter::Open(fs, dir.path(), 128, 1, "", 0);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          writer.value()->Append(WalRecordType::kNoop, Pad('x', 100), &last)
              .ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  auto segments = ListWalSegments(fs, dir.path());
  ASSERT_TRUE(segments.ok());
  EXPECT_GT(segments.value().size(), 1u);
  for (const auto& seg : segments.value()) {
    EXPECT_EQ(seg.name, WalSegmentName(seg.first_lsn));
  }

  // Reopen at the scanned position and keep appending; the log stays
  // one contiguous LSN sequence.
  auto scan = ScanWal(fs, dir.path(), 0, NopRecordFn());
  ASSERT_TRUE(scan.ok());
  ASSERT_FALSE(scan.value().truncated);
  auto relisted = ListWalSegments(fs, dir.path());
  ASSERT_TRUE(relisted.ok());
  const auto& tail_seg = relisted.value().back();
  auto tail_size = fs->FileSize(dir.path() + "/" + tail_seg.name);
  ASSERT_TRUE(tail_size.ok());
  auto writer2 = WalWriter::Open(fs, dir.path(), 128, scan.value().last_lsn + 1,
                                 tail_seg.name, tail_size.value());
  ASSERT_TRUE(writer2.ok());
  ASSERT_TRUE(
      writer2.value()->Append(WalRecordType::kNoop, "after", &last).ok());
  EXPECT_EQ(last, 7u);
  ASSERT_TRUE(writer2.value()->Sync().ok());
  auto rescan = ScanWal(fs, dir.path(), 0, NopRecordFn());
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan.value().last_lsn, 7u);
  EXPECT_FALSE(rescan.value().truncated);
}

// Flips one byte in the middle of the file at `path`.
void CorruptByteAt(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(offset);
  f.write(&b, 1);
}

TEST(WalScan, StopsAtCorruptRecordAndReportsTruncation) {
  TempDir dir;
  FileSystem* fs = PosixFileSystem();
  auto writer = WalWriter::Open(fs, dir.path(), 64 << 20, 1, "", 0);
  ASSERT_TRUE(writer.ok());
  uint64_t lsn = 0;
  std::vector<uint64_t> offsets;  // record start offsets
  uint64_t offset = 0;
  for (int i = 0; i < 5; ++i) {
    offsets.push_back(offset);
    std::string payload = "record-" + std::to_string(i);
    ASSERT_TRUE(
        writer.value()->Append(WalRecordType::kNoop, payload, &lsn).ok());
    offset += kWalFrameHeader + kWalRecordHeader + payload.size();
  }
  ASSERT_TRUE(writer.value()->Sync().ok());
  std::string segment = writer.value()->segment_name();
  writer.value().reset();

  // Corrupt a payload byte of record 4 (lsn 4): records 1-3 survive,
  // the scan truncates at record 4's start.
  CorruptByteAt(dir.path() + "/" + segment,
                static_cast<long>(offsets[3] + kWalFrameHeader +
                                  kWalRecordHeader + 2));
  auto stats = ScanWal(fs, dir.path(), 0, NopRecordFn());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().last_lsn, 3u);
  EXPECT_TRUE(stats.value().truncated);
  EXPECT_EQ(stats.value().truncate_reason, "bad-crc");
  EXPECT_EQ(stats.value().truncate_segment, segment);
  EXPECT_EQ(stats.value().truncate_offset, offsets[3]);
}

TEST(WalScan, TornTailDetected) {
  TempDir dir;
  FileSystem* fs = PosixFileSystem();
  auto writer = WalWriter::Open(fs, dir.path(), 64 << 20, 1, "", 0);
  ASSERT_TRUE(writer.ok());
  uint64_t lsn = 0;
  ASSERT_TRUE(writer.value()->Append(WalRecordType::kNoop, "aaaa", &lsn).ok());
  ASSERT_TRUE(writer.value()->Append(WalRecordType::kNoop, "bbbb", &lsn).ok());
  ASSERT_TRUE(writer.value()->Sync().ok());
  std::string path = dir.path() + "/" + writer.value()->segment_name();
  writer.value().reset();

  // Chop 2 bytes off the second record: torn write.
  auto size = fs->FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(fs->Truncate(path, size.value() - 2).ok());
  auto stats = ScanWal(fs, dir.path(), 0, NopRecordFn());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().last_lsn, 1u);
  EXPECT_TRUE(stats.value().truncated);
  EXPECT_EQ(stats.value().truncate_reason, "torn-record");
}

TEST(WalWriter, InjectedAppendFaultThenRepairTail) {
  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingFileSystem fs(PosixFileSystem(), plan);
  auto writer = WalWriter::Open(&fs, dir.path(), 64 << 20, 1, "", 0);
  ASSERT_TRUE(writer.ok());
  uint64_t lsn = 0;
  ASSERT_TRUE(writer.value()->Append(WalRecordType::kNoop, "good", &lsn).ok());
  {
    std::lock_guard<std::mutex> lock(plan->mutex);
    plan->fail_append_after = 1;
    plan->torn_bytes = 5;  // half the frame header lands on disk
  }
  EXPECT_FALSE(
      writer.value()->Append(WalRecordType::kNoop, "torn", &lsn).ok());
  EXPECT_TRUE(writer.value()->needs_repair());
  // Sticky: still failing.
  EXPECT_FALSE(
      writer.value()->Append(WalRecordType::kNoop, "still", &lsn).ok());
  plan->Reset();
  ASSERT_TRUE(writer.value()->RepairTail().ok());
  ASSERT_TRUE(writer.value()->Append(WalRecordType::kNoop, "after", &lsn).ok());
  EXPECT_EQ(lsn, 2u);
  ASSERT_TRUE(writer.value()->Sync().ok());

  auto stats = ScanWal(PosixFileSystem(), dir.path(), 0, NopRecordFn());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().last_lsn, 2u);
  EXPECT_FALSE(stats.value().truncated);
}

TEST(WalIo, DirLockIsExclusive) {
  TempDir dir;
  FileSystem* fs = PosixFileSystem();
  auto first = fs->LockFile(dir.path() + "/LOCK");
  ASSERT_TRUE(first.ok());
  auto second = fs->LockFile(dir.path() + "/LOCK");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  fs->ReleaseLock(first.value());
  auto third = fs->LockFile(dir.path() + "/LOCK");
  ASSERT_TRUE(third.ok());
  fs->ReleaseLock(third.value());
}

}  // namespace
}  // namespace ecrpq
