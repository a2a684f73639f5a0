#include "server/session.h"

#include <algorithm>
#include <utility>

#include "wal/durable.h"

namespace ecrpq {

namespace {

constexpr uint32_t kMaxPageSize = 65536;

// Encoded-byte budget for the rows of one ROWS page: the frame body may
// not exceed kMaxFrameBody, and the reply's fixed fields (cursor_id,
// flags, arity, row count) plus the frame header need headroom.
constexpr size_t kPageByteBudget = kMaxFrameBody - 64;

/// A bare acknowledgment (CANCEL / CLOSE-*): type + echoed id, no payload.
Frame OkFrame(uint32_t request_id) {
  Frame frame;
  frame.type = MsgType::kOk;
  frame.request_id = request_id;
  return frame;
}

/// The end of the ROWS page of a rendered result that starts at row
/// `offset`: capped both by row count and by encoded byte size so the
/// page always fits in one frame (row count alone doesn't bound it:
/// names are arbitrary-length). Sets *status only when the row at
/// `offset` alone exceeds the frame limit and therefore can never be
/// sent.
size_t PageEnd(const CachedResult& result, size_t offset, uint32_t count,
               Status* status) {
  const size_t limit = std::min(result.num_rows(), offset + count);
  size_t end = offset;
  while (end < limit &&
         result.offsets[end + 1] - result.offsets[offset] <= kPageByteBudget) {
    ++end;
  }
  if (end == offset && end < limit) {
    *status = Status::ResourceExhausted(
        "result row encodes to " +
        std::to_string(result.offsets[end + 1] - result.offsets[end]) +
        " bytes, beyond the " + std::to_string(kMaxFrameBody) +
        "-byte frame limit");
  }
  return end;
}

/// A ROWS frame carrying rows [begin, end) of `result` as one byte slice
/// of its rendered buffer. kRowsFlagDone is set when no rows remain.
Frame PageFrame(uint32_t request_id, const CachedResult& result,
                size_t begin, size_t end, uint64_t cursor_id,
                uint8_t flags) {
  if (result.truncated) flags |= kRowsFlagTruncated;
  if (end >= result.num_rows()) flags |= kRowsFlagDone;
  Frame frame;
  frame.type = MsgType::kRows;
  frame.request_id = request_id;
  EncodeRows(cursor_id, flags, result.arity,
             static_cast<uint32_t>(end - begin),
             std::span<const uint8_t>(result.bytes)
                 .subspan(result.offsets[begin],
                          result.offsets[end] - result.offsets[begin]),
             &frame.payload);
  return frame;
}

}  // namespace

Frame Session::ErrorFrame(uint32_t request_id, const Status& status) const {
  ErrorReply reply;
  reply.code = static_cast<uint32_t>(status.code());
  reply.message = status.message();
  return MakeFrame(MsgType::kError, request_id, reply);
}

std::optional<Frame> Session::PreadmitExecute(const Frame& frame) {
  const Status duplicate = Status::InvalidArgument(
      "request id " + std::to_string(frame.request_id) +
      " already has an execute in flight");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return ErrorFrame(frame.request_id,
                        Status::FailedPrecondition("session closed"));
    }
    // Reject duplicates before touching the admission counter so the
    // answer is a deterministic ERROR even when the server is saturated.
    if (in_flight_.count(frame.request_id) > 0) {
      stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
      return ErrorFrame(frame.request_id, duplicate);
    }
  }
  if (!admission_->TryAdmit()) {
    stats_->executes_overloaded.fetch_add(1, std::memory_order_relaxed);
    OverloadedReply reply;
    reply.in_flight = static_cast<uint32_t>(admission_->admitted());
    reply.capacity = static_cast<uint32_t>(admission_->capacity());
    reply.message = "execute shed by admission control (in-flight " +
                    std::to_string(reply.in_flight) + " >= capacity " +
                    std::to_string(reply.capacity) + ")";
    return MakeFrame(MsgType::kOverloaded, frame.request_id, reply);
  }
  // Register the token now, on the I/O thread: an out-of-band CANCEL (or
  // a disconnect) must reach an execute that is still waiting for an
  // executor thread, not only one that already started.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bool inserted =
        in_flight_
            .emplace(frame.request_id, std::make_shared<CancellationToken>())
            .second;
    if (inserted) return std::nullopt;
  }
  // A duplicate raced in between the check above and the admit (only
  // possible for direct Handle() callers — the I/O thread serializes a
  // connection's frames). Overwriting the registration would make two
  // admissions share one in_flight_ entry — its single erase would
  // release one slot and leak the other permanently — so reject the
  // duplicate and give its slot back.
  admission_->Release();
  stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
  return ErrorFrame(frame.request_id, duplicate);
}

Session::HandleResult Session::Handle(const Frame& frame) {
  HandleResult out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      // The connection died while this frame sat in the queue. An
      // admitted execute still owns an admission slot — give it back.
      if (frame.type == MsgType::kExecute) {
        auto it = in_flight_.find(frame.request_id);
        if (it != in_flight_.end()) {
          in_flight_.erase(it);
          admission_->Release();
        }
      }
      return out;
    }
    if (!hello_done_ && frame.type != MsgType::kHello) {
      out.replies.push_back(ErrorFrame(
          frame.request_id,
          Status::FailedPrecondition("handshake required before " +
                                     std::to_string(static_cast<int>(
                                         frame.type)))));
      out.close_connection = true;
      return out;
    }
  }
  switch (frame.type) {
    case MsgType::kHello:
      out.replies.push_back(HandleHello(frame, &out.close_connection));
      break;
    case MsgType::kPrepare:
      out.replies.push_back(HandlePrepare(frame));
      break;
    case MsgType::kExecute:
      out.replies.push_back(HandleExecute(frame));
      break;
    case MsgType::kFetch:
      out.replies.push_back(HandleFetch(frame));
      break;
    case MsgType::kCancel:
      out.replies.push_back(HandleCancel(frame));
      break;
    case MsgType::kMutate:
      out.replies.push_back(HandleMutate(frame));
      break;
    case MsgType::kStats:
      out.replies.push_back(HandleStats(frame));
      break;
    case MsgType::kCloseStmt:
      out.replies.push_back(HandleCloseStmt(frame));
      break;
    case MsgType::kCloseCursor:
      out.replies.push_back(HandleCloseCursor(frame));
      break;
    default:
      stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
      out.replies.push_back(ErrorFrame(
          frame.request_id,
          Status::InvalidArgument(
              "unknown message type " +
              std::to_string(static_cast<int>(frame.type)))));
      break;
  }
  return out;
}

Frame Session::HandleHello(const Frame& frame, bool* close_connection) {
  HelloRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok() || req.magic != kProtocolMagic) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    *close_connection = true;
    return ErrorFrame(frame.request_id,
                      Status::InvalidArgument("bad handshake magic"));
  }
  if (req.version != kProtocolVersion) {
    *close_connection = true;
    return ErrorFrame(
        frame.request_id,
        Status::InvalidArgument(
            "unsupported protocol version " + std::to_string(req.version) +
            " (server speaks " + std::to_string(kProtocolVersion) + ")"));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hello_done_ = true;
  }
  HelloReply reply;
  reply.server = "ecrpq-serverd/1";
  return MakeFrame(MsgType::kHelloOk, frame.request_id, reply);
}

Frame Session::HandlePrepare(const Frame& frame) {
  PrepareRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id, decoded);
  }
  stats_->prepares.fetch_add(1, std::memory_order_relaxed);
  auto prepared = db_->Prepare(req.text);  // hits the shared plan cache
  if (!prepared.ok()) return ErrorFrame(frame.request_id, prepared.status());
  PrepareReply reply;
  reply.param_names = prepared.value().parameter_names();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reply.stmt_id = next_stmt_id_++;
    stmts_.emplace(reply.stmt_id, std::move(prepared).value());
  }
  return MakeFrame(MsgType::kPrepareOk, frame.request_id, reply);
}

Frame Session::HandleExecute(const Frame& frame) {
  const auto started = std::chrono::steady_clock::now();
  // Admission: normally done by PreadmitExecute on the I/O thread; a
  // direct call (tests, in-process use) admits here.
  std::shared_ptr<CancellationToken> token;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = in_flight_.find(frame.request_id);
    if (it != in_flight_.end()) token = it->second;
  }
  if (token == nullptr) {
    std::optional<Frame> shed = PreadmitExecute(frame);
    if (shed.has_value()) return *shed;
    std::lock_guard<std::mutex> lock(mutex_);
    token = in_flight_[frame.request_id];
  }
  auto finish = [&](Frame reply, bool ok_rows, uint64_t rows) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_.erase(frame.request_id);
    }
    admission_->Release();
    const auto elapsed = std::chrono::steady_clock::now() - started;
    stats_->execute_latency.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    if (ok_rows) {
      stats_->executes_ok.fetch_add(1, std::memory_order_relaxed);
      stats_->rows_returned.fetch_add(rows, std::memory_order_relaxed);
    }
    return reply;
  };

  ExecuteRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return finish(ErrorFrame(frame.request_id, decoded), false, 0);
  }
  PreparedQuery stmt;
  bool stmt_found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stmts_.find(req.stmt_id);
    if (it != stmts_.end()) {
      stmt = it->second;  // cheap handle: shares the compiled plan
      stmt_found = true;
    }
  }  // finish() relocks mutex_, so error out only after unlocking
  if (!stmt_found) {
    stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
    return finish(ErrorFrame(frame.request_id,
                             Status::NotFound("unknown statement id " +
                                              std::to_string(req.stmt_id))),
                  false, 0);
  }
  const uint32_t page_size =
      std::min(req.page_size == 0 ? options_->default_page_size
                                  : req.page_size,
               kMaxPageSize);
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (req.deadline_ms > 0) {
    deadline = started + std::chrono::milliseconds(req.deadline_ms);
  }

  // ---- result cache probe -------------------------------------------------
  const bool bypass_cache = (req.flags & kExecFlagBypassCache) != 0 ||
                            req.row_limit > 0;
  const std::string cache_key = ResultCache::Key(stmt.text(), req.params);
  GraphIndexPtr snapshot = db_->graph_index();
  if (!bypass_cache) {
    if (CachedResultPtr hit = cache_->Lookup(cache_key, snapshot)) {
      Frame page = RowsPage(frame.request_id, hit, 0, page_size,
                            /*from_cache=*/true);
      const bool sent_rows = page.type == MsgType::kRows;
      return finish(std::move(page), sent_rows,
                    sent_rows ? hit->num_rows() : 0);
    }
  }

  // ---- engine run ---------------------------------------------------------
  // Server-side ceiling on materialized rows: with row_limit=0 a single
  // pathological query must not buffer an unbounded result set here, so
  // the weaker of (client limit, max_result_rows) bounds the run and a
  // capped result is flagged truncated.
  const uint64_t row_cap = options_->max_result_rows;
  const bool server_capped =
      row_cap > 0 && (req.row_limit == 0 || req.row_limit > row_cap);
  ExecuteOptions exec;
  exec.limit = server_capped ? row_cap : req.row_limit;
  exec.deadline = deadline;
  exec.cancellation = token;
  exec.build_path_answers = false;  // the wire carries node tuples only
  if (options_->query_threads > 0) exec.num_threads = options_->query_threads;
  Params params;
  for (const auto& [name, value] : req.params) params.Set(name, value);
  auto cursor = stmt.Execute(params, exec);
  if (!cursor.ok()) {
    stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
    return finish(ErrorFrame(frame.request_id, cursor.status()), false, 0);
  }
  ResultCursor& rows = cursor.value();
  const bool any = rows.Next();  // runs the engine
  const Status& run_status = rows.status();
  if (!run_status.ok()) {
    if (run_status.code() == StatusCode::kCancelled) {
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() >= *deadline) {
        stats_->executes_deadline.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_->executes_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
    }
    return finish(ErrorFrame(frame.request_id, run_status), false, 0);
  }

  // Render the cursor's rows once, straight into wire form, under the
  // shared graph guard: a MutateGraph writer may be appending nodes
  // concurrently, and the name table must be stable while we read it.
  // Node ids are append-only, so ids from the finished execution stay
  // valid.
  auto rendered = std::make_shared<CachedResult>();
  rendered->arity =
      static_cast<uint16_t>(stmt.query().head_nodes().size());
  {
    auto guard = db_->SharedReadGuard();
    const GraphDb& graph = db_->graph();
    WireWriter w(&rendered->bytes);
    for (bool more = any; more; more = rows.Next()) {
      for (NodeId node : rows.row()) {
        // Stored names go out as views of the name arena; only an
        // anonymous node's "n<id>" is built as a string.
        const std::string_view name = graph.StoredName(node);
        if (!name.empty()) {
          w.Str(name);
        } else {
          w.Str(graph.NodeName(node));
        }
      }
      rendered->offsets.push_back(rendered->bytes.size());
    }
  }
  rendered->truncated = server_capped && rendered->num_rows() >= row_cap;
  CachedResultPtr result = rendered;

  // Memoize complete results, but only when no MutateGraph raced the run:
  // the entry is keyed to the snapshot we probed with, and a mutation in
  // between means the engine may have run against a newer one.
  if (!bypass_cache && db_->graph_index() == snapshot) {
    cache_->Insert(cache_key, snapshot, result);  // refuses truncated
  }
  Frame page = RowsPage(frame.request_id, result, 0, page_size,
                        /*from_cache=*/false);
  const bool sent_rows = page.type == MsgType::kRows;
  return finish(std::move(page), sent_rows,
                sent_rows ? result->num_rows() : 0);
}

Frame Session::RowsPage(uint32_t request_id, CachedResultPtr result,
                        size_t offset, uint32_t page_size, bool from_cache) {
  Status page_status = Status::OK();
  const size_t end = PageEnd(*result, offset, page_size, &page_status);
  if (!page_status.ok()) {
    stats_->executes_error.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(request_id, page_status);
  }
  uint64_t cursor_id = 0;
  if (end < result->num_rows()) {
    std::lock_guard<std::mutex> lock(mutex_);
    cursor_id = next_cursor_id_++;
    cursors_[cursor_id] = CursorState{result, end};
  }
  return PageFrame(request_id, *result, offset, end, cursor_id,
                   from_cache ? kRowsFlagFromCache : 0);
}

Frame Session::HandleFetch(const Frame& frame) {
  FetchRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id, decoded);
  }
  stats_->fetches.fetch_add(1, std::memory_order_relaxed);
  const uint32_t page_size =
      std::min(req.max_rows == 0 ? options_->default_page_size : req.max_rows,
               kMaxPageSize);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cursors_.find(req.cursor_id);
  if (it == cursors_.end()) {
    return ErrorFrame(frame.request_id,
                      Status::NotFound("unknown cursor id " +
                                       std::to_string(req.cursor_id)));
  }
  Status page_status = Status::OK();
  const CachedResultPtr result = it->second.result;
  const size_t offset = it->second.offset;
  const size_t end = PageEnd(*result, offset, page_size, &page_status);
  if (!page_status.ok()) {
    // An unsendable row blocks this cursor for good: drop it so the
    // client isn't invited to re-fetch into the same error forever.
    cursors_.erase(it);
    return ErrorFrame(frame.request_id, page_status);
  }
  stats_->rows_returned.fetch_add(end - offset, std::memory_order_relaxed);
  uint64_t cursor_id = 0;
  if (end >= result->num_rows()) {
    cursors_.erase(it);
  } else {
    it->second.offset = end;
    cursor_id = req.cursor_id;
  }
  return PageFrame(frame.request_id, *result, offset, end, cursor_id, 0);
}

Frame Session::HandleCancel(const Frame& frame) {
  CancelRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id, decoded);
  }
  stats_->cancels.fetch_add(1, std::memory_order_relaxed);
  CancelInFlight(req.target_request_id);
  return OkFrame(frame.request_id);
}

void Session::CancelInFlight(uint32_t target_request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [request_id, token] : in_flight_) {
    if (target_request_id == 0 || request_id == target_request_id) {
      token->Cancel();
    }
  }
}

Frame Session::HandleMutate(const Frame& frame) {
  MutateRequest req;
  Status decoded = Decode(frame.payload, &req);
  if (!decoded.ok()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id, decoded);
  }
  stats_->mutations.fetch_add(1, std::memory_order_relaxed);
  // The O(delta) write path: in-flight executions drain, the batch is
  // applied, and the index snapshot advances via a delta segment instead
  // of being discarded — the writer no longer stalls the next reader
  // behind a full O(V+E) rebuild. The new snapshot is a distinct
  // GraphIndexPtr, so result-cache entries keyed on the old one miss
  // naturally; cached plans survive unless the batch grew the alphabet.
  GraphMutation mutation;
  mutation.add_edges.reserve(req.edges.size());
  for (const auto& edge : req.edges) {
    mutation.add_edges.push_back(EdgeSpec{edge[0], edge[1], edge[2]});
  }
  auto committed = db_->CommitDelta(mutation);
  if (!committed.ok()) {
    // Durable write path rejected the batch — typically "DEGRADED:
    // ..." with kUnavailable when the WAL can't accept appends. The
    // graph is untouched; reads keep serving. The throttled probe
    // inside the log (plus the server's periodic ProbeDurability)
    // clears the state once the disk recovers.
    stats_->mutations_rejected.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id, committed.status());
  }
  const MutationSummary& summary = committed.value();
  MutateReply reply;
  reply.num_nodes = static_cast<uint64_t>(summary.num_nodes);
  reply.num_edges = static_cast<uint64_t>(summary.num_edges);
  return MakeFrame(MsgType::kMutateOk, frame.request_id, reply);
}

Frame Session::HandleStats(const Frame& frame) {
  StatsReply reply;
  auto add = [&](const std::string& key, uint64_t value) {
    reply.text += key + "=" + std::to_string(value) + "\n";
  };
  const ServerStats& s = *stats_;
  add("server.connections_accepted", s.connections_accepted.load());
  add("server.connections_active", s.connections_active.load());
  add("server.frames_received", s.frames_received.load());
  add("server.frames_malformed", s.frames_malformed.load());
  add("server.prepares", s.prepares.load());
  add("server.executes_ok", s.executes_ok.load());
  add("server.executes_error", s.executes_error.load());
  add("server.executes_cancelled", s.executes_cancelled.load());
  add("server.executes_deadline", s.executes_deadline.load());
  add("server.executes_overloaded", s.executes_overloaded.load());
  add("server.fetches", s.fetches.load());
  add("server.mutations", s.mutations.load());
  add("server.cancels", s.cancels.load());
  add("server.rows_returned", s.rows_returned.load());
  add("latency.count", s.execute_latency.count());
  add("latency.mean_us",
      static_cast<uint64_t>(s.execute_latency.MeanNs() / 1000.0));
  add("latency.p50_us",
      static_cast<uint64_t>(s.execute_latency.PercentileNs(50) / 1000.0));
  add("latency.p99_us",
      static_cast<uint64_t>(s.execute_latency.PercentileNs(99) / 1000.0));
  add("admission.in_flight", static_cast<uint64_t>(admission_->admitted()));
  add("admission.capacity", static_cast<uint64_t>(admission_->capacity()));
  add("admission.peak", static_cast<uint64_t>(admission_->peak()));
  add("admission.total_admitted", admission_->total_admitted());
  add("admission.total_rejected", admission_->total_rejected());
  add("cache.hits", cache_->hits());
  add("cache.misses", cache_->misses());
  add("cache.insertions", cache_->insertions());
  add("cache.invalidations", cache_->invalidations());
  add("cache.size", cache_->size());
  add("db.plan_cache_size", db_->plan_cache_size());
  add("db.plan_cache_hits", db_->plan_cache_hits());
  add("db.plan_cache_misses", db_->plan_cache_misses());
  {
    auto guard = db_->SharedReadGuard();
    add("db.nodes", static_cast<uint64_t>(db_->graph().num_nodes()));
    add("db.edges", static_cast<uint64_t>(db_->graph().num_edges()));
  }
  add("server.mutations_rejected", s.mutations_rejected.load());
  if (const DurableLog* log = db_->durable_log()) {
    const WalStats wal = log->stats();
    add("wal.enabled", 1);
    add("wal.degraded", db_->write_degraded() ? 1 : 0);
    add("wal.last_lsn", wal.last_lsn);
    add("wal.durable_lsn", wal.durable_lsn);
    add("wal.checkpoint_lsn", wal.checkpoint_lsn);
    add("wal.appends", wal.appends);
    add("wal.append_failures", wal.append_failures);
    add("wal.syncs", wal.syncs);
    add("wal.sync_failures", wal.sync_failures);
    add("wal.checkpoints", wal.checkpoints);
    add("wal.checkpoint_failures", wal.checkpoint_failures);
    add("wal.probes", wal.probes);
    add("wal.appended_bytes", wal.appended_bytes);
  } else {
    add("wal.enabled", 0);
  }
  return MakeFrame(MsgType::kStatsOk, frame.request_id, reply);
}

Frame Session::HandleCloseStmt(const Frame& frame) {
  WireReader r(frame.payload.data(), frame.payload.size());
  uint32_t stmt_id = r.U32();
  if (!r.Complete()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(frame.request_id,
                      Status::InvalidArgument("malformed payload: close-stmt"));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stmts_.erase(stmt_id);
  return OkFrame(frame.request_id);
}

Frame Session::HandleCloseCursor(const Frame& frame) {
  WireReader r(frame.payload.data(), frame.payload.size());
  uint64_t cursor_id = r.U64();
  if (!r.Complete()) {
    stats_->frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(
        frame.request_id,
        Status::InvalidArgument("malformed payload: close-cursor"));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  cursors_.erase(cursor_id);
  return OkFrame(frame.request_id);
}

void Session::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  for (auto& [request_id, token] : in_flight_) {
    (void)request_id;
    token->Cancel();
  }
  cursors_.clear();
  stmts_.clear();
}

}  // namespace ecrpq
