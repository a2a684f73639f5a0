// The serving subsystem end to end, over real sockets on a loopback
// ephemeral port: handshake enforcement, malformed-frame handling (fatal
// unframeable streams vs survivable bad payloads), prepared statements
// with paged cursors, snapshot-keyed result caching with MutateGraph
// invalidation, admission-control load shedding, out-of-band cancel and
// per-request deadlines cancelling mid-search, disconnect-triggered
// cancellation, and concurrent sessions racing a writer. Every test runs
// a Server in-process; the suite doubles as the TSan workload for the
// whole src/server/ layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/server_stats.h"
#include "server/session.h"

namespace ecrpq {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

GraphDb Chain(int n) {
  GraphDb g;
  NodeId prev = g.AddNode("v0");
  for (int i = 1; i < n; ++i) {
    NodeId next = g.AddNode("v" + std::to_string(i));
    g.AddEdge(prev, "a", next);
    prev = next;
  }
  return g;
}

// All ordered pairs on the chain: n*(n-1)/2 rows.
constexpr char kPairsQuery[] = "Ans(x, y) <- (x, p, y), 'a'+(p)";

// Zero answers behind minutes of counting-engine search on a 2000-chain;
// cancellable within milliseconds. The slow query of every test that
// needs an execute to still be running when something else happens.
constexpr char kBurnQuery[] = "Ans() <- (x, p, y), len(p) >= 2100";

struct TestServer {
  explicit TestServer(int chain, ServingOptions options = {})
      : db(Chain(chain)) {
    options.port = 0;
    server = std::make_unique<Server>(&db, options);
    start_status = server->Start();
  }
  ~TestServer() { server->Stop(); }

  Status ConnectClient(Client* client) {
    return client->Connect("127.0.0.1", server->port());
  }

  Database db;
  std::unique_ptr<Server> server;
  Status start_status;
};

// ---- handshake and framing --------------------------------------------------

TEST(ServerProtocol, FirstFrameMustBeHello) {
  TestServer ts(10);
  ASSERT_TRUE(ts.start_status.ok()) << ts.start_status.ToString();
  Client client;
  ASSERT_TRUE(client.ConnectRaw("127.0.0.1", ts.server->port()).ok());

  PrepareRequest req;
  req.text = kPairsQuery;
  ASSERT_TRUE(client.SendFrame(MakeFrame(MsgType::kPrepare, 1, req)).ok());
  Frame reply;
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  // And the connection is gone.
  EXPECT_FALSE(client.ReadFrame(&reply).ok());
}

TEST(ServerProtocol, BadMagicOrVersionRejected) {
  TestServer ts(10);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(client.ConnectRaw("127.0.0.1", ts.server->port()).ok());

  HelloRequest hello;
  hello.magic = 0xdeadbeef;
  ASSERT_TRUE(client.SendFrame(MakeFrame(MsgType::kHello, 1, hello)).ok());
  Frame reply;
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_FALSE(client.ReadFrame(&reply).ok());
}

TEST(ServerProtocol, UnframeableLengthIsFatal) {
  TestServer ts(10);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(client.ConnectRaw("127.0.0.1", ts.server->port()).ok());

  // body_len far beyond kMaxFrameBody: the server must not buffer it.
  const uint8_t lying[8] = {0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4};
  ASSERT_TRUE(client.SendRaw(lying, sizeof(lying)).ok());
  Frame reply;
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_FALSE(client.ReadFrame(&reply).ok());
  EXPECT_GE(ts.server->stats().frames_malformed.load(), 1u);
}

// A ROWS payload is cursor id (u64), flags (u8), arity (u16) and row
// count (u32), little-endian, then every name u32-length-prefixed in row
// order; the session's pre-encoded pages rely on that layout.
TEST(ServerProtocol, RowsPayloadLayout) {
  RowsReply reply;
  reply.cursor_id = 42;
  reply.flags = kRowsFlagTruncated;
  reply.arity = 2;
  reply.rows = {{"a", "bc"}, {"", "d"}};
  std::vector<uint8_t> got;
  Encode(reply, &got);
  const std::vector<uint8_t> want = {
      42, 0, 0, 0, 0, 0, 0, 0,  // cursor id
      kRowsFlagTruncated,       // flags
      2, 0,                     // arity
      2, 0, 0, 0,               // rows
      1, 0, 0, 0, 'a',          // row 0
      2, 0, 0, 0, 'b', 'c',     //
      0, 0, 0, 0,               // row 1
      1, 0, 0, 0, 'd'};
  EXPECT_EQ(got, want);
  RowsReply decoded;
  ASSERT_TRUE(Decode(got, &decoded).ok());
  EXPECT_EQ(decoded.cursor_id, reply.cursor_id);
  EXPECT_EQ(decoded.flags, reply.flags);
  EXPECT_EQ(decoded.arity, reply.arity);
  EXPECT_EQ(decoded.rows, reply.rows);
}

TEST(ServerProtocol, MalformedPayloadSurvivable) {
  TestServer ts(10);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  // Decodable frame, garbage payload: a PREPARE whose string length
  // promises more bytes than the payload holds.
  Frame bad;
  bad.type = MsgType::kPrepare;
  bad.request_id = 7;
  bad.payload = {0xff, 0xff, 0xff, 0x0f};  // str len 0x0fffffff, no bytes
  ASSERT_TRUE(client.SendFrame(bad).ok());
  Frame reply;
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 7u);

  // Unknown type: same story.
  Frame unknown;
  unknown.type = static_cast<MsgType>(0x6f);
  unknown.request_id = 8;
  ASSERT_TRUE(client.SendFrame(unknown).ok());
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 8u);

  // The connection survived both: normal traffic still works.
  uint32_t stmt_id = 0;
  EXPECT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
}

// ---- statements, execution, paging ------------------------------------------

TEST(ServerSession, PrepareExecuteFetchPages) {
  TestServer ts(40);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());

  Client::ExecuteSpec spec;
  spec.page_size = 100;
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, spec, &page).ok());
  EXPECT_EQ(page.arity, 2u);
  size_t rows = page.rows.size();
  size_t pages = 1;
  while (!page.done) {
    ASSERT_NE(page.cursor_id, 0u);
    ASSERT_TRUE(client.Fetch(page.cursor_id, 100, &page).ok());
    rows += page.rows.size();
    ++pages;
    ASSERT_LT(pages, 100u) << "cursor never reported done";
  }
  EXPECT_EQ(rows, 40u * 39u / 2u);
  EXPECT_GT(pages, 1u);
  for (const auto& row : page.rows) EXPECT_EQ(row.size(), 2u);

  // Exhausted cursors go away; fetching again is an error.
  Client::RowsPage after;
  EXPECT_FALSE(client.Fetch(page.cursor_id, 100, &after).ok());

  EXPECT_TRUE(client.CloseStmt(stmt_id).ok());
  Client::RowsPage gone;
  EXPECT_FALSE(client.Execute(stmt_id, spec, &gone).ok());
}

// A result larger than one frame: long node names make the frame's byte
// budget, not the row count, end each page when the page size is large.
// Over the wire the pages concatenate to exactly the rows and order of
// an in-process cursor run, hence to ExecuteAll's rows, and every page
// ends where the byte budget (or the page size) puts its end: a page
// takes rows while their encoded names, each a u32 length plus its
// bytes, stay within kMaxFrameBody - 64.
TEST(ServerSession, MultiPageResultMatchesInProcessExecution) {
  GraphDb g;
  NodeId prev = -1;
  for (int i = 0; i < 30; ++i) {
    const NodeId v =
        g.AddNode("v" + std::to_string(i) + std::string(24000 + 101 * i, 'x'));
    if (prev >= 0) g.AddEdge(prev, "a", v);
    prev = v;
  }
  Database db(std::move(g));
  Server server(&db, ServingOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto prepared = db.Prepare(kPairsQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExecuteOptions exec;
  exec.build_path_answers = false;
  auto cursor = prepared.value().Execute({}, exec);
  ASSERT_TRUE(cursor.ok());
  std::vector<std::vector<std::string>> want;
  while (cursor.value().Next()) {
    std::vector<std::string> row;
    for (NodeId v : cursor.value().tuple()) {
      row.push_back(db.graph().NodeName(v));
    }
    want.push_back(std::move(row));
  }
  ASSERT_EQ(want.size(), 30u * 29u / 2u);
  auto all = prepared.value().ExecuteAll();
  ASSERT_TRUE(all.ok());
  std::vector<std::vector<std::string>> sorted_want;
  for (const std::vector<NodeId>& tuple : all.value().tuples()) {
    std::vector<std::string> row;
    for (NodeId v : tuple) row.push_back(db.graph().NodeName(v));
    sorted_want.push_back(std::move(row));
  }
  std::sort(sorted_want.begin(), sorted_want.end());

  for (uint32_t page_size : {65536u, 100u}) {
    SCOPED_TRACE("page_size " + std::to_string(page_size));
    // The rows each page must carry.
    std::vector<size_t> want_pages;
    for (size_t begin = 0; begin < want.size();) {
      size_t end = begin, bytes = 0;
      while (end < want.size() && end - begin < page_size) {
        size_t row_bytes = 0;
        for (const std::string& name : want[end]) row_bytes += 4 + name.size();
        if (bytes + row_bytes > kMaxFrameBody - 64) break;
        bytes += row_bytes;
        ++end;
      }
      want_pages.push_back(end - begin);
      begin = end;
    }
    ASSERT_GE(want_pages.size(), 2u);

    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    uint32_t stmt_id = 0;
    ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
    Client::ExecuteSpec spec;
    spec.page_size = page_size;
    spec.bypass_cache = true;
    Client::RowsPage page;
    ASSERT_TRUE(client.Execute(stmt_id, spec, &page).ok());
    std::vector<std::vector<std::string>> got;
    std::vector<size_t> got_pages;
    while (true) {
      got_pages.push_back(page.rows.size());
      for (auto& row : page.rows) got.push_back(std::move(row));
      if (page.done) break;
      ASSERT_LT(got_pages.size(), want_pages.size());
      ASSERT_TRUE(client.Fetch(page.cursor_id, page_size, &page).ok());
    }
    EXPECT_EQ(got_pages, want_pages);
    EXPECT_TRUE(got == want) << "rows or their order differ";
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(got == sorted_want);
  }
  server.Stop();
}

TEST(ServerSession, RowLimitOverWire) {
  TestServer ts(40);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::ExecuteSpec spec;
  spec.row_limit = 17;
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, spec, &page).ok());
  size_t rows = page.rows.size();
  while (!page.done) {
    ASSERT_TRUE(client.Fetch(page.cursor_id, 0, &page).ok());
    rows += page.rows.size();
  }
  EXPECT_EQ(rows, 17u);
}

TEST(ServerSession, ErrorsForBadStatementAndQuery) {
  TestServer ts(10);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  Status status = client.Prepare("this is not a query", &stmt_id);
  EXPECT_FALSE(status.ok());

  Client::RowsPage page;
  status = client.Execute(999, {}, &page);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// ---- result cache -----------------------------------------------------------

TEST(ServerCache, HitThenMutateGraphInvalidates) {
  TestServer ts(40);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());

  Client::RowsPage first;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &first).ok());
  EXPECT_FALSE(first.from_cache);
  const size_t before = first.rows.size();
  EXPECT_EQ(before, 40u * 39u / 2u);

  Client::RowsPage second;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &second).ok());
  EXPECT_TRUE(second.from_cache) << "identical re-execute must hit";
  EXPECT_EQ(second.rows, first.rows);
  EXPECT_GE(ts.server->cache().hits(), 1u);

  // Mutate: the snapshot swaps, so the entry must die — and the fresh
  // answer must include the new edge's pairs (provable invalidation, not
  // just a cleared flag).
  uint64_t nodes = 0;
  uint64_t edges = 0;
  ASSERT_TRUE(client.Mutate({{"v39", "a", "w0"}}, &nodes, &edges).ok());

  Client::RowsPage third;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &third).ok());
  EXPECT_FALSE(third.from_cache) << "stale snapshot served from cache";
  EXPECT_EQ(third.rows.size(), before + 40u)
      << "w0 is reachable from every chain node";
  EXPECT_GE(ts.server->cache().invalidations(), 1u);

  // Params are part of the key: same text, different binding, no hit.
  uint32_t param_stmt = 0;
  ASSERT_TRUE(client
                  .Prepare("Ans(y) <- ($s, p, y), 'a'+(p)", &param_stmt)
                  .ok());
  Client::ExecuteSpec with_v0;
  with_v0.params = {{"s", "v0"}};
  Client::ExecuteSpec with_v5;
  with_v5.params = {{"s", "v5"}};
  Client::RowsPage v0_page, v5_page;
  ASSERT_TRUE(client.Execute(param_stmt, with_v0, &v0_page).ok());
  ASSERT_TRUE(client.Execute(param_stmt, with_v5, &v5_page).ok());
  EXPECT_FALSE(v5_page.from_cache);
  EXPECT_NE(v0_page.rows.size(), v5_page.rows.size());
}

// Regression: the key must be injection-proof. Param values are
// client-supplied node names that may contain any byte, so a joiner
// character cannot delimit components — two different bindings colliding
// would serve one client's rows to another.
TEST(ServerCache, KeyCannotBeForgedAcrossBindings) {
  const std::string tricky =
      std::string("x") + '\x1f' + "b" + '\x1e' + "y";  // old separators
  EXPECT_NE(ResultCache::Key("q", {{"a", tricky}}),
            ResultCache::Key("q", {{"a", "x"}, {"b", "y"}}));
  // Bytes must not slide across the name/value boundary...
  EXPECT_NE(ResultCache::Key("q", {{"ab", "c"}}),
            ResultCache::Key("q", {{"a", "bc"}}));
  // ...nor across the text/params boundary.
  EXPECT_NE(ResultCache::Key("qa", {}), ResultCache::Key("q", {{"a", ""}}));
  // Canonicalization still holds: binding order is irrelevant.
  EXPECT_EQ(ResultCache::Key("q", {{"a", "1"}, {"b", "2"}}),
            ResultCache::Key("q", {{"b", "2"}, {"a", "1"}}));
}

TEST(ServerCache, BypassFlagSkipsCache) {
  TestServer ts(20);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &page).ok());
  Client::ExecuteSpec bypass;
  bypass.bypass_cache = true;
  ASSERT_TRUE(client.Execute(stmt_id, bypass, &page).ok());
  EXPECT_FALSE(page.from_cache);
}

// The server-side row ceiling bounds what one execute may materialize:
// the result comes back truncated+flagged, and a truncated prefix is
// never cached (a later caller must get the real answer set).
TEST(ServerSession, ServerRowCapTruncatesAndSkipsCache) {
  ServingOptions options;
  options.max_result_rows = 10;
  TestServer ts(40, options);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &page).ok());
  EXPECT_TRUE(page.truncated);
  EXPECT_TRUE(page.done);
  EXPECT_EQ(page.rows.size(), 10u) << "ceiling must stop materialization";

  ASSERT_TRUE(client.Execute(stmt_id, {}, &page).ok());
  EXPECT_FALSE(page.from_cache) << "truncated results must not be cached";
  EXPECT_EQ(ts.server->cache().size(), 0u);

  // A client limit under the ceiling behaves as before: exact, unflagged.
  Client::ExecuteSpec spec;
  spec.row_limit = 5;
  ASSERT_TRUE(client.Execute(stmt_id, spec, &page).ok());
  EXPECT_FALSE(page.truncated);
  EXPECT_EQ(page.rows.size(), 5u);
}

// Regression: a ROWS page was capped only by row count, so rows with
// long node names could encode past kMaxFrameBody — the client treats
// such a frame as a fatal protocol violation. Pages must be byte-capped
// and a single unsendable row must become a clean ERROR, not a torn
// stream.
TEST(ServerSession, OversizedRowsErrorInsteadOfBreakingFraming) {
  TestServer ts(2);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  // Two ~9 MiB node names, created by separate MUTATEs (together they
  // exceed one frame) and then connected so the pairs query must emit
  // the 18 MiB row (giant_a, giant_b) — beyond any legal frame.
  const std::string giant_a(9 * 1024 * 1024, 'A');
  const std::string giant_b(9 * 1024 * 1024, 'B');
  ASSERT_TRUE(client.Mutate({{giant_a, "a", "mid"}}, nullptr, nullptr).ok());
  ASSERT_TRUE(client.Mutate({{"mid", "a", giant_b}}, nullptr, nullptr).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::RowsPage page;
  Status status = client.Execute(stmt_id, {}, &page);
  while (status.ok() && !page.done) {
    status = client.Fetch(page.cursor_id, 0, &page);
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << "the oversized row must surface as an explicit error: "
      << status.ToString();

  // The connection survived — framing never desynchronized.
  std::string text;
  EXPECT_TRUE(client.Stats(&text).ok());
}

// ---- admission control ------------------------------------------------------

TEST(ServerAdmission, ShedsBeyondCapacityWithExplicitOverloaded) {
  ServingOptions options;
  options.executor_threads = 2;
  options.max_in_flight = 1;
  options.max_queue = 0;
  TestServer ts(2000, options);
  ASSERT_TRUE(ts.start_status.ok());

  Client busy;
  ASSERT_TRUE(ts.ConnectClient(&busy).ok());
  uint32_t stmt_id = 0;
  ASSERT_TRUE(busy.Prepare(kBurnQuery, &stmt_id).ok());
  Client::ExecuteSpec slow;
  slow.bypass_cache = true;
  uint32_t burn_id = 0;
  ASSERT_TRUE(busy.SendExecute(stmt_id, slow, &burn_id).ok());
  std::this_thread::sleep_for(milliseconds(100));  // slot is taken

  Client second;
  ASSERT_TRUE(ts.ConnectClient(&second).ok());
  uint32_t stmt2 = 0;
  ASSERT_TRUE(second.Prepare(kPairsQuery, &stmt2).ok());
  Client::RowsPage page;
  Status status = second.Execute(stmt2, {}, &page);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("OVERLOADED"), std::string::npos)
      << "shed load must be explicit, never silent: " << status.ToString();
  EXPECT_GE(ts.server->stats().executes_overloaded.load(), 1u);

  // Freeing the slot restores service.
  ASSERT_TRUE(busy.Cancel(burn_id).ok());
  Client::RowsPage burned;
  EXPECT_EQ(busy.AwaitRows(burn_id, &burned).code(), StatusCode::kCancelled);
  status = second.Execute(stmt2, {}, &page);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Regression: two pipelined EXECUTEs under one request_id must not
// double-register the id — the pair would release one admission slot and
// leak the other permanently, bleeding capacity until every execute is
// shed OVERLOADED. The duplicate gets an ERROR and no slot.
TEST(ServerAdmission, DuplicateRequestIdRejectedWithoutLeakingSlot) {
  Database db(Chain(10));
  ResultCache cache;
  AdmissionController admission(4, 0);
  ServerStats stats;
  ServingOptions options;
  Session session(&db, &cache, &admission, &stats, &options, 1);

  ASSERT_EQ(session.Handle(MakeFrame(MsgType::kHello, 1, HelloRequest{}))
                .replies[0]
                .type,
            MsgType::kHelloOk);
  PrepareRequest prep;
  prep.text = kPairsQuery;
  Session::HandleResult prepared =
      session.Handle(MakeFrame(MsgType::kPrepare, 2, prep));
  ASSERT_EQ(prepared.replies[0].type, MsgType::kPrepareOk);
  PrepareReply prep_reply;
  ASSERT_TRUE(Decode(prepared.replies[0].payload, &prep_reply).ok());

  ExecuteRequest exec;
  exec.stmt_id = prep_reply.stmt_id;
  Frame frame = MakeFrame(MsgType::kExecute, 7, exec);
  ASSERT_FALSE(session.PreadmitExecute(frame).has_value());
  EXPECT_EQ(admission.admitted(), 1);

  std::optional<Frame> dup = session.PreadmitExecute(frame);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->type, MsgType::kError);
  EXPECT_EQ(admission.admitted(), 1) << "duplicate must not hold a slot";

  Session::HandleResult done = session.Handle(frame);
  ASSERT_EQ(done.replies.size(), 1u);
  EXPECT_EQ(done.replies[0].type, MsgType::kRows);
  EXPECT_EQ(admission.admitted(), 0)
      << "exactly one release per admission, even after a duplicate";

  // Once the first finished, reusing its id is legal again.
  ASSERT_FALSE(session.PreadmitExecute(frame).has_value());
  EXPECT_EQ(admission.admitted(), 1);
  EXPECT_EQ(session.Handle(frame).replies[0].type, MsgType::kRows);
  EXPECT_EQ(admission.admitted(), 0);
}

TEST(ServerAdmission, DuplicateRequestIdOverWireDoesNotExhaustCapacity) {
  ServingOptions options;
  options.executor_threads = 2;
  options.max_in_flight = 2;
  options.max_queue = 0;
  TestServer ts(2000, options);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());
  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kBurnQuery, &stmt_id).ok());

  ExecuteRequest req;
  req.stmt_id = stmt_id;
  req.flags = kExecFlagBypassCache;
  ASSERT_TRUE(client.SendFrame(MakeFrame(MsgType::kExecute, 100, req)).ok());
  std::this_thread::sleep_for(milliseconds(100));  // burn is in flight
  ASSERT_TRUE(client.SendFrame(MakeFrame(MsgType::kExecute, 100, req)).ok());

  Frame reply;
  ASSERT_TRUE(client.ReadFrame(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError) << "duplicate id must be rejected";
  EXPECT_EQ(reply.request_id, 100u);

  CancelRequest cancel;
  cancel.target_request_id = 100;
  ASSERT_TRUE(client.SendFrame(MakeFrame(MsgType::kCancel, 101, cancel)).ok());
  bool saw_cancel_ack = false;
  bool saw_burn_reply = false;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ReadFrame(&reply).ok());
    if (reply.request_id == 101) {
      EXPECT_EQ(reply.type, MsgType::kOk);
      saw_cancel_ack = true;
    } else {
      EXPECT_EQ(reply.request_id, 100u);
      EXPECT_EQ(reply.type, MsgType::kError);
      saw_burn_reply = true;
    }
  }
  EXPECT_TRUE(saw_cancel_ack);
  EXPECT_TRUE(saw_burn_reply);

  // Every admitted slot was released: the server reports zero in flight
  // and still serves at full capacity.
  std::string text;
  ASSERT_TRUE(client.Stats(&text).ok());
  EXPECT_NE(text.find("admission.in_flight=0"), std::string::npos) << text;
  uint32_t pairs_stmt = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &pairs_stmt).ok());
  Client::RowsPage page;
  EXPECT_TRUE(client.Execute(pairs_stmt, {}, &page).ok());
}

// ---- cancellation and deadlines ---------------------------------------------

TEST(ServerCancel, OutOfBandCancelStopsMidSearch) {
  TestServer ts(2000);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kBurnQuery, &stmt_id).ok());
  Client::ExecuteSpec spec;
  spec.bypass_cache = true;
  uint32_t request_id = 0;
  auto start = steady_clock::now();
  ASSERT_TRUE(client.SendExecute(stmt_id, spec, &request_id).ok());
  std::this_thread::sleep_for(milliseconds(50));  // let the engine run
  ASSERT_TRUE(client.Cancel(request_id).ok());
  Client::RowsPage page;
  EXPECT_EQ(client.AwaitRows(request_id, &page).code(),
            StatusCode::kCancelled);
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30))
      << "cancel did not interrupt the search";
  EXPECT_GE(ts.server->stats().executes_cancelled.load(), 1u);
}

TEST(ServerDeadline, DeadlineCancelsMidSearchOverWire) {
  TestServer ts(2000);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kBurnQuery, &stmt_id).ok());
  Client::ExecuteSpec spec;
  spec.deadline_ms = 100;
  spec.bypass_cache = true;
  auto start = steady_clock::now();
  Client::RowsPage page;
  Status status = client.Execute(stmt_id, spec, &page);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30));
  EXPECT_GE(ts.server->stats().executes_deadline.load(), 1u);
}

TEST(ServerDisconnect, MidQueryDisconnectCancelsAndServerSurvives) {
  TestServer ts(2000);
  ASSERT_TRUE(ts.start_status.ok());

  {
    Client doomed;
    ASSERT_TRUE(ts.ConnectClient(&doomed).ok());
    uint32_t stmt_id = 0;
    ASSERT_TRUE(doomed.Prepare(kBurnQuery, &stmt_id).ok());
    Client::ExecuteSpec spec;
    spec.bypass_cache = true;
    uint32_t request_id = 0;
    ASSERT_TRUE(doomed.SendExecute(stmt_id, spec, &request_id).ok());
    std::this_thread::sleep_for(milliseconds(100));
    doomed.Close();  // hang up with the query running
  }

  // The server must notice and cancel the orphaned execution.
  auto deadline = steady_clock::now() + std::chrono::seconds(30);
  while (ts.server->stats().executes_cancelled.load() == 0 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_GE(ts.server->stats().executes_cancelled.load(), 1u)
      << "disconnect did not cancel the in-flight query";

  // And it still serves new clients.
  Client fresh;
  ASSERT_TRUE(ts.ConnectClient(&fresh).ok());
  uint32_t stmt_id = 0;
  ASSERT_TRUE(fresh.Prepare(kPairsQuery, &stmt_id).ok());
  Client::RowsPage page;
  EXPECT_TRUE(fresh.Execute(stmt_id, {}, &page).ok());
}

// ---- concurrency ------------------------------------------------------------

TEST(ServerConcurrency, ManySessionsRacingAWriter) {
  ServingOptions options;
  options.executor_threads = 4;
  options.max_in_flight = 8;
  options.max_queue = 64;
  TestServer ts(60, options);
  ASSERT_TRUE(ts.start_status.ok());
  const size_t base_rows = 60u * 59u / 2u;

  std::atomic<int> failures{0};
  std::atomic<int> mutations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Client client;
      if (!ts.ConnectClient(&client).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint32_t stmt_id = 0;
      if (!client.Prepare(kPairsQuery, &stmt_id).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 15; ++i) {
        Client::ExecuteSpec spec;
        spec.bypass_cache = (t + i) % 2 == 0;
        Client::RowsPage page;
        Status status = client.Execute(stmt_id, spec, &page);
        if (!status.ok()) {
          failures.fetch_add(1);
          return;
        }
        size_t rows = page.rows.size();
        while (!page.done) {
          if (!client.Fetch(page.cursor_id, 0, &page).ok()) {
            failures.fetch_add(1);
            return;
          }
          rows += page.rows.size();
        }
        // Every snapshot the execution could have pinned contains at
        // least the base chain; the writer only ever adds pairs.
        if (rows < base_rows) failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    Client client;
    if (!ts.ConnectClient(&client).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < 10; ++i) {
      std::string fresh = "w" + std::to_string(i);
      if (!client.Mutate({{"v59", "a", fresh}}, nullptr, nullptr).ok()) {
        failures.fetch_add(1);
        return;
      }
      mutations.fetch_add(1);
      std::this_thread::sleep_for(milliseconds(10));
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mutations.load(), 10);

  // Post-race ground truth, bypassing the cache: the chain plus every
  // writer edge (each w* adds 60 new pairs: one per chain node).
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());
  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::ExecuteSpec spec;
  spec.bypass_cache = true;
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, spec, &page).ok());
  size_t rows = page.rows.size();
  while (!page.done) {
    ASSERT_TRUE(client.Fetch(page.cursor_id, 0, &page).ok());
    rows += page.rows.size();
  }
  EXPECT_EQ(rows, base_rows + 10u * 60u);
}

// ---- observability ----------------------------------------------------------

TEST(ServerStatsRequest, ReportsCounters) {
  TestServer ts(20);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &page).ok());

  std::string text;
  ASSERT_TRUE(client.Stats(&text).ok());
  EXPECT_NE(text.find("server.executes_ok=1"), std::string::npos) << text;
  EXPECT_NE(text.find("server.prepares=1"), std::string::npos);
  EXPECT_NE(text.find("latency.p99_us="), std::string::npos);
  EXPECT_NE(text.find("cache.size=1"), std::string::npos);
  EXPECT_NE(text.find("admission.capacity="), std::string::npos);
  EXPECT_NE(text.find("db.plan_cache_hits="), std::string::npos);
}

// Pipelining: several executes in flight on one connection, answered in
// order per the actor scheduling, each to its own request_id.
TEST(ServerSession, PipelinedRequestsCorrelateByRequestId) {
  TestServer ts(30);
  ASSERT_TRUE(ts.start_status.ok());
  Client client;
  ASSERT_TRUE(ts.ConnectClient(&client).ok());

  uint32_t stmt_id = 0;
  ASSERT_TRUE(client.Prepare(kPairsQuery, &stmt_id).ok());
  uint32_t ids[3] = {0, 0, 0};
  Client::ExecuteSpec spec;
  spec.bypass_cache = true;
  for (uint32_t& id : ids) {
    ASSERT_TRUE(client.SendExecute(stmt_id, spec, &id).ok());
  }
  // Collect out of order: the client library buffers by request_id.
  for (int i = 2; i >= 0; --i) {
    Client::RowsPage page;
    ASSERT_TRUE(client.AwaitRows(ids[i], &page).ok());
    EXPECT_EQ(page.rows.size(), 30u * 29u / 2u);
  }
}

}  // namespace
}  // namespace ecrpq
