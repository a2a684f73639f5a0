// Wire protocol of ecrpq-serverd: length-prefixed binary frames over TCP.
//
// Frame layout (all integers little-endian, fixed width):
//
//   u32 body_len | u8 type | u32 request_id | payload[body_len - 5]
//
// body_len counts everything after the length prefix and must lie in
// [kMinFrameBody, kMaxFrameBody]; a length outside that range is a
// protocol violation and the server closes the connection (an attacker
// lying about the length must not make the server buffer 4 GiB). A
// *decodable* frame with an unknown type or a malformed payload is
// answered with an ERROR reply and the connection survives — only
// unframeable byte streams are fatal.
//
// request_id is chosen by the client and echoed verbatim in the reply, so
// clients may pipeline requests and send out-of-band CANCELs while an
// EXECUTE is in flight. The conversation starts with a versioned
// handshake: the first frame must be HELLO carrying the protocol magic
// and version; anything else (or a version mismatch) is rejected and the
// connection closed.
//
// Strings are u32 length + raw bytes. Node values travel as node *names*
// (the client does not share the server's NodeId space).

#ifndef ECRPQ_SERVER_PROTOCOL_H_
#define ECRPQ_SERVER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ecrpq {

// ---- framing constants ------------------------------------------------------

inline constexpr uint32_t kProtocolMagic = 0x45435251;  // "ECRQ"
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr uint32_t kMinFrameBody = 5;  // type + request_id
inline constexpr uint32_t kMaxFrameBody = 16u * 1024 * 1024;

enum class MsgType : uint8_t {
  // requests (client → server)
  kHello = 0x01,
  kPrepare = 0x02,
  kExecute = 0x03,
  kFetch = 0x04,
  kCancel = 0x05,
  kMutate = 0x06,
  kStats = 0x07,
  kCloseStmt = 0x08,
  kCloseCursor = 0x09,
  // replies (server → client)
  kHelloOk = 0x81,
  kPrepareOk = 0x82,
  kRows = 0x83,
  kError = 0x84,
  kOverloaded = 0x85,
  kStatsOk = 0x86,
  kMutateOk = 0x87,
  kOk = 0x88,
};

/// True for type values this protocol version defines.
bool IsKnownMsgType(uint8_t type);

/// One decoded frame: type, correlation id, and the raw payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Appends the full wire encoding of `frame` (length prefix included).
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

/// Attempts to extract one frame from buffer[offset...]. Returns:
///   kOk                 — frame filled, *offset advanced past it
///   kResourceExhausted  — body_len outside [kMin,kMax]: fatal, close
///   kFailedPrecondition — incomplete; read more bytes and retry
Status DecodeFrame(const std::vector<uint8_t>& buffer, size_t* offset,
                   Frame* frame);

// ---- payload primitives -----------------------------------------------------
//
// Writer appends to a byte vector; Reader consumes with bounds checking
// and reports malformed payloads (truncation, oversized strings) as one
// sticky error the message decoder surfaces.

class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}
  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);

 private:
  std::vector<uint8_t>* out_;
};

class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  std::string Str();

  /// True once every byte was consumed and no read ran past the end.
  bool Complete() const { return ok_ && pos_ == size_; }
  bool ok() const { return ok_; }

 private:
  bool Need(size_t n);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- typed messages ---------------------------------------------------------

struct HelloRequest {
  uint32_t magic = kProtocolMagic;
  uint16_t version = kProtocolVersion;
};

struct PrepareRequest {
  std::string text;
};

struct ExecuteRequest {
  uint32_t stmt_id = 0;
  uint32_t deadline_ms = 0;  ///< 0 = no deadline
  uint64_t row_limit = 0;    ///< 0 = unlimited (row budget)
  uint32_t page_size = 0;    ///< rows per ROWS page; 0 = server default
  uint8_t flags = 0;         ///< kExecFlagBypassCache
  std::vector<std::pair<std::string, std::string>> params;
};
inline constexpr uint8_t kExecFlagBypassCache = 0x01;

struct FetchRequest {
  uint64_t cursor_id = 0;
  uint32_t max_rows = 0;  ///< 0 = server default page size
};

struct CancelRequest {
  uint32_t target_request_id = 0;  ///< 0 = every in-flight execute
};

struct MutateRequest {
  /// Edges to append: (from, label, to) node/label names. Unknown node
  /// names are created.
  std::vector<std::array<std::string, 3>> edges;
};

struct HelloReply {
  uint16_t version = kProtocolVersion;
  std::string server;
};

struct PrepareReply {
  uint32_t stmt_id = 0;
  std::vector<std::string> param_names;
};

struct RowsReply {
  uint64_t cursor_id = 0;  ///< 0 = no cursor (result fit in this page)
  uint8_t flags = 0;       ///< kRowsFlag* bits
  uint16_t arity = 0;
  std::vector<std::vector<std::string>> rows;
};
inline constexpr uint8_t kRowsFlagDone = 0x01;
inline constexpr uint8_t kRowsFlagFromCache = 0x02;
/// The server's max_result_rows ceiling stopped the execution: the rows
/// streamed through this cursor are a prefix of the full answer set.
inline constexpr uint8_t kRowsFlagTruncated = 0x04;

struct ErrorReply {
  uint32_t code = 0;  ///< StatusCode
  std::string message;
};

struct OverloadedReply {
  uint32_t in_flight = 0;
  uint32_t capacity = 0;
  std::string message;
};

struct StatsReply {
  std::string text;  ///< key=value lines
};

struct MutateReply {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
};

// Encode fills a payload byte vector; Decode parses one and returns
// InvalidArgument on truncated/trailing/oversized payloads.
void Encode(const HelloRequest& m, std::vector<uint8_t>* out);
void Encode(const PrepareRequest& m, std::vector<uint8_t>* out);
void Encode(const ExecuteRequest& m, std::vector<uint8_t>* out);
void Encode(const FetchRequest& m, std::vector<uint8_t>* out);
void Encode(const CancelRequest& m, std::vector<uint8_t>* out);
void Encode(const MutateRequest& m, std::vector<uint8_t>* out);
void Encode(const HelloReply& m, std::vector<uint8_t>* out);
void Encode(const PrepareReply& m, std::vector<uint8_t>* out);
void Encode(const RowsReply& m, std::vector<uint8_t>* out);
/// A ROWS payload whose `count` rows are already wire-encoded in `rows`
/// (arity u32-length-prefixed names each). Encode(RowsReply) encodes its
/// names and calls this, so the header is written in one place.
void EncodeRows(uint64_t cursor_id, uint8_t flags, uint16_t arity,
                uint32_t count, std::span<const uint8_t> rows,
                std::vector<uint8_t>* out);
void Encode(const ErrorReply& m, std::vector<uint8_t>* out);
void Encode(const OverloadedReply& m, std::vector<uint8_t>* out);
void Encode(const StatsReply& m, std::vector<uint8_t>* out);
void Encode(const MutateReply& m, std::vector<uint8_t>* out);

Status Decode(const std::vector<uint8_t>& payload, HelloRequest* m);
Status Decode(const std::vector<uint8_t>& payload, PrepareRequest* m);
Status Decode(const std::vector<uint8_t>& payload, ExecuteRequest* m);
Status Decode(const std::vector<uint8_t>& payload, FetchRequest* m);
Status Decode(const std::vector<uint8_t>& payload, CancelRequest* m);
Status Decode(const std::vector<uint8_t>& payload, MutateRequest* m);
Status Decode(const std::vector<uint8_t>& payload, HelloReply* m);
Status Decode(const std::vector<uint8_t>& payload, PrepareReply* m);
Status Decode(const std::vector<uint8_t>& payload, RowsReply* m);
Status Decode(const std::vector<uint8_t>& payload, ErrorReply* m);
Status Decode(const std::vector<uint8_t>& payload, OverloadedReply* m);
Status Decode(const std::vector<uint8_t>& payload, StatsReply* m);
Status Decode(const std::vector<uint8_t>& payload, MutateReply* m);

/// Builds a ready-to-send frame from a typed message.
template <typename Msg>
Frame MakeFrame(MsgType type, uint32_t request_id, const Msg& msg) {
  Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  Encode(msg, &frame.payload);
  return frame;
}

}  // namespace ecrpq

#endif  // ECRPQ_SERVER_PROTOCOL_H_
