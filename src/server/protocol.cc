#include "server/protocol.h"

#include <cassert>
#include <cstring>

namespace ecrpq {

namespace {

// Per-string sanity bound: a single name/text inside a payload can never
// exceed the frame bound anyway; rejecting earlier keeps the reader from
// attempting huge allocations on lying length fields.
constexpr uint32_t kMaxStringLen = kMaxFrameBody;

}  // namespace

bool IsKnownMsgType(uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello:
    case MsgType::kPrepare:
    case MsgType::kExecute:
    case MsgType::kFetch:
    case MsgType::kCancel:
    case MsgType::kMutate:
    case MsgType::kStats:
    case MsgType::kCloseStmt:
    case MsgType::kCloseCursor:
    case MsgType::kHelloOk:
    case MsgType::kPrepareOk:
    case MsgType::kRows:
    case MsgType::kError:
    case MsgType::kOverloaded:
    case MsgType::kStatsOk:
    case MsgType::kMutateOk:
    case MsgType::kOk:
      return true;
  }
  return false;
}

// ---- framing ----------------------------------------------------------------

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  // Oversized payloads must be caught where the frame is built (the
  // session byte-caps ROWS pages); encoding one anyway would overflow
  // the u32 length prefix and desynchronize the stream for the peer.
  assert(frame.payload.size() <= kMaxFrameBody - kMinFrameBody);
  const uint32_t body_len =
      static_cast<uint32_t>(kMinFrameBody + frame.payload.size());
  WireWriter w(out);
  w.U32(body_len);
  w.U8(static_cast<uint8_t>(frame.type));
  w.U32(frame.request_id);
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
}

Status DecodeFrame(const std::vector<uint8_t>& buffer, size_t* offset,
                   Frame* frame) {
  const size_t available = buffer.size() - *offset;
  if (available < 4) {
    return Status::FailedPrecondition("incomplete length prefix");
  }
  uint32_t body_len;
  std::memcpy(&body_len, buffer.data() + *offset, 4);
  if (body_len < kMinFrameBody || body_len > kMaxFrameBody) {
    return Status::ResourceExhausted(
        "frame body length " + std::to_string(body_len) +
        " outside [" + std::to_string(kMinFrameBody) + ", " +
        std::to_string(kMaxFrameBody) + "]");
  }
  if (available < 4 + static_cast<size_t>(body_len)) {
    return Status::FailedPrecondition("incomplete frame body");
  }
  const uint8_t* body = buffer.data() + *offset + 4;
  frame->type = static_cast<MsgType>(body[0]);
  std::memcpy(&frame->request_id, body + 1, 4);
  frame->payload.assign(body + 5, body + body_len);
  *offset += 4 + body_len;
  return Status::OK();
}

// ---- primitives -------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  out_->push_back(static_cast<uint8_t>(v));
  out_->push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

bool WireReader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint16_t WireReader::U16() {
  if (!Need(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::string WireReader::Str() {
  uint32_t len = U32();
  if (len > kMaxStringLen || !Need(len)) {
    ok_ = false;
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

// ---- typed messages ---------------------------------------------------------

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed payload: ") + what);
}

Status Finish(const WireReader& r, const char* what) {
  if (!r.Complete()) return Malformed(what);
  return Status::OK();
}

}  // namespace

void Encode(const HelloRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.magic);
  w.U16(m.version);
}

Status Decode(const std::vector<uint8_t>& payload, HelloRequest* m) {
  WireReader r(payload.data(), payload.size());
  m->magic = r.U32();
  m->version = r.U16();
  return Finish(r, "hello");
}

void Encode(const PrepareRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.Str(m.text);
}

Status Decode(const std::vector<uint8_t>& payload, PrepareRequest* m) {
  WireReader r(payload.data(), payload.size());
  m->text = r.Str();
  return Finish(r, "prepare");
}

void Encode(const ExecuteRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.stmt_id);
  w.U32(m.deadline_ms);
  w.U64(m.row_limit);
  w.U32(m.page_size);
  w.U8(m.flags);
  w.U16(static_cast<uint16_t>(m.params.size()));
  for (const auto& [name, value] : m.params) {
    w.Str(name);
    w.Str(value);
  }
}

Status Decode(const std::vector<uint8_t>& payload, ExecuteRequest* m) {
  WireReader r(payload.data(), payload.size());
  m->stmt_id = r.U32();
  m->deadline_ms = r.U32();
  m->row_limit = r.U64();
  m->page_size = r.U32();
  m->flags = r.U8();
  uint16_t n = r.U16();
  m->params.clear();
  for (uint16_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.Str();
    std::string value = r.Str();
    m->params.emplace_back(std::move(name), std::move(value));
  }
  return Finish(r, "execute");
}

void Encode(const FetchRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U64(m.cursor_id);
  w.U32(m.max_rows);
}

Status Decode(const std::vector<uint8_t>& payload, FetchRequest* m) {
  WireReader r(payload.data(), payload.size());
  m->cursor_id = r.U64();
  m->max_rows = r.U32();
  return Finish(r, "fetch");
}

void Encode(const CancelRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.target_request_id);
}

Status Decode(const std::vector<uint8_t>& payload, CancelRequest* m) {
  WireReader r(payload.data(), payload.size());
  m->target_request_id = r.U32();
  return Finish(r, "cancel");
}

void Encode(const MutateRequest& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(static_cast<uint32_t>(m.edges.size()));
  for (const auto& edge : m.edges) {
    w.Str(edge[0]);
    w.Str(edge[1]);
    w.Str(edge[2]);
  }
}

Status Decode(const std::vector<uint8_t>& payload, MutateRequest* m) {
  WireReader r(payload.data(), payload.size());
  uint32_t n = r.U32();
  m->edges.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::array<std::string, 3> edge;
    edge[0] = r.Str();
    edge[1] = r.Str();
    edge[2] = r.Str();
    m->edges.push_back(std::move(edge));
  }
  return Finish(r, "mutate");
}

void Encode(const HelloReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U16(m.version);
  w.Str(m.server);
}

Status Decode(const std::vector<uint8_t>& payload, HelloReply* m) {
  WireReader r(payload.data(), payload.size());
  m->version = r.U16();
  m->server = r.Str();
  return Finish(r, "hello-ok");
}

void Encode(const PrepareReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.stmt_id);
  w.U16(static_cast<uint16_t>(m.param_names.size()));
  for (const std::string& name : m.param_names) w.Str(name);
}

Status Decode(const std::vector<uint8_t>& payload, PrepareReply* m) {
  WireReader r(payload.data(), payload.size());
  m->stmt_id = r.U32();
  uint16_t n = r.U16();
  m->param_names.clear();
  for (uint16_t i = 0; i < n && r.ok(); ++i) m->param_names.push_back(r.Str());
  return Finish(r, "prepare-ok");
}

void EncodeRows(uint64_t cursor_id, uint8_t flags, uint16_t arity,
                uint32_t count, std::span<const uint8_t> rows,
                std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U64(cursor_id);
  w.U8(flags);
  w.U16(arity);
  w.U32(count);
  out->insert(out->end(), rows.begin(), rows.end());
}

void Encode(const RowsReply& m, std::vector<uint8_t>* out) {
  std::vector<uint8_t> rows;
  WireWriter w(&rows);
  for (const auto& row : m.rows) {
    for (const std::string& value : row) w.Str(value);
  }
  EncodeRows(m.cursor_id, m.flags, m.arity,
             static_cast<uint32_t>(m.rows.size()), rows, out);
}

Status Decode(const std::vector<uint8_t>& payload, RowsReply* m) {
  WireReader r(payload.data(), payload.size());
  m->cursor_id = r.U64();
  m->flags = r.U8();
  m->arity = r.U16();
  uint32_t n = r.U32();
  m->rows.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::vector<std::string> row;
    row.reserve(m->arity);
    for (uint16_t k = 0; k < m->arity && r.ok(); ++k) row.push_back(r.Str());
    m->rows.push_back(std::move(row));
  }
  return Finish(r, "rows");
}

void Encode(const ErrorReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.code);
  w.Str(m.message);
}

Status Decode(const std::vector<uint8_t>& payload, ErrorReply* m) {
  WireReader r(payload.data(), payload.size());
  m->code = r.U32();
  m->message = r.Str();
  return Finish(r, "error");
}

void Encode(const OverloadedReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U32(m.in_flight);
  w.U32(m.capacity);
  w.Str(m.message);
}

Status Decode(const std::vector<uint8_t>& payload, OverloadedReply* m) {
  WireReader r(payload.data(), payload.size());
  m->in_flight = r.U32();
  m->capacity = r.U32();
  m->message = r.Str();
  return Finish(r, "overloaded");
}

void Encode(const StatsReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.Str(m.text);
}

Status Decode(const std::vector<uint8_t>& payload, StatsReply* m) {
  WireReader r(payload.data(), payload.size());
  m->text = r.Str();
  return Finish(r, "stats-ok");
}

void Encode(const MutateReply& m, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.U64(m.num_nodes);
  w.U64(m.num_edges);
}

Status Decode(const std::vector<uint8_t>& payload, MutateReply* m) {
  WireReader r(payload.data(), payload.size());
  m->num_nodes = r.U64();
  m->num_edges = r.U64();
  return Finish(r, "mutate-ok");
}

}  // namespace ecrpq
