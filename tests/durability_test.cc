// The durable write path end to end: OpenDurable recovery, the
// write-ahead commit protocol, a deterministic crash-point matrix over
// every injected I/O fault, ENOSPC-style degraded mode with probing
// recovery, MutateGraph's synchronous checkpoint, a randomized
// crash+recover-vs-twin property test, and degraded-mode serving over
// a real socket.
//
// "Crash" here = destroy the Database mid-fault and reopen the data
// dir. With faults sticky until Reset, the destructor's best-effort
// flush fails too, so nothing beyond the faulted operation reaches the
// disk — the on-disk state is exactly what a kill at that point leaves.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "server/client.h"
#include "server/server.h"
#include "util/io.h"
#include "wal/durable.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

namespace ecrpq {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ecrpq-durability-test-XXXXXX";
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

GraphDb SeedGraph() {
  GraphDb g;
  NodeId ann = g.AddNode("ann");
  NodeId bob = g.AddNode("bob");
  NodeId eva = g.AddNode("eva");
  g.AddEdge(ann, "advisor", eva);
  g.AddEdge(bob, "advisor", eva);
  return g;
}

// Synchronous compaction + no background threads: every test run is
// deterministic, and compaction-time checkpoints happen inline.
DatabaseOptions DeterministicOptions() {
  DatabaseOptions options;
  options.background_compaction = false;
  return options;
}

GraphMutation BatchN(int i) {
  GraphMutation m;
  std::string a = "u" + std::to_string(i);
  std::string b = "u" + std::to_string(i + 1);
  m.add_edges.push_back({a, "step", b});
  m.add_edges.push_back({b, "back", a});
  if (i % 3 == 1) {
    // Exercise removals and anonymous node creation too.
    m.remove_edges.push_back({"u" + std::to_string(i - 1), "back",
                              "u" + std::to_string(i - 2)});
    m.add_nodes.push_back("");
  }
  return m;
}

std::string Fingerprint(const Database& db) {
  return EncodeCheckpoint(db.graph(), *db.graph_index());
}

// ---- basic lifecycle --------------------------------------------------------

TEST(Durability, FreshOpenSeedsAndReopenRecovers) {
  TempDir dir;
  DurabilityOptions durability;
  std::string fingerprint;
  {
    WalRecoveryInfo info;
    auto opened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), SeedGraph(),
                                        &info);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Database& db = *opened.value();
    EXPECT_TRUE(db.durable());
    EXPECT_FALSE(db.write_degraded());
    EXPECT_FALSE(info.checkpoint_loaded);  // fresh dir: seed, not recovery
    EXPECT_EQ(db.graph().num_edges(), 2);

    for (int i = 0; i < 5; ++i) {
      auto committed = db.CommitDelta(BatchN(i));
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      EXPECT_EQ(committed.value().lsn, static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ(db.applied_lsn(), 5u);
    fingerprint = Fingerprint(db);

    // Queries run on the durable Database like any other.
    auto rows = db.Execute("Ans(x) <- (x, p, y), 'advisor'(p)");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().tuples().size(), 2u);
  }
  {
    WalRecoveryInfo info;
    auto reopened = Database::OpenDurable(dir.path(), durability,
                                         DeterministicOptions(), GraphDb(),
                                         &info);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(info.checkpoint_loaded);
    EXPECT_EQ(info.last_lsn, 5u);
    // The seed is ignored on a non-fresh dir; recovered state wins.
    EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
    EXPECT_EQ(reopened.value()->applied_lsn(), 5u);
  }
}

TEST(Durability, SecondOpenOnLockedDirFails) {
  TempDir dir;
  DurabilityOptions durability;
  auto first = Database::OpenDurable(dir.path(), durability,
                                     DeterministicOptions(), SeedGraph());
  ASSERT_TRUE(first.ok());
  auto second = Database::OpenDurable(dir.path(), durability,
                                      DeterministicOptions(), SeedGraph());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Durability, IdLevelCommitValidatesAndRecovers) {
  TempDir dir;
  DurabilityOptions durability;
  std::string fingerprint;
  {
    auto opened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), SeedGraph());
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    // Out-of-range ids are rejected BEFORE reaching the log.
    auto bad = db.CommitDelta({{999, 0, 0}}, {});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    auto good = db.CommitDelta({{0, 0, 1}, {1, 0, 2}}, {});
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(good.value().lsn, 1u);
    fingerprint = Fingerprint(db);
  }
  auto reopened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), GraphDb());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
}

// Names and labels are arbitrary byte strings. An acked write whose
// node name or label holds a newline must survive the next checkpoint
// publish, which also prunes the log segments that held the write.
TEST(Durability, NewlineInNameOrLabelSurvivesCheckpoint) {
  TempDir dir;
  DurabilityOptions durability;
  std::string fingerprint;
  {
    auto opened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), GraphDb());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Database& db = *opened.value();
    GraphMutation m;
    m.add_edges.push_back({"ann\nbob", "knows", "carl"});
    m.add_edges.push_back({"carl", "knows\nwell", "ann\nbob"});
    auto committed = db.CommitDelta(m);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    db.MutateGraph([](GraphDb&) {});  // publishes a checkpoint
    fingerprint = Fingerprint(db);
  }
  auto reopened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), GraphDb());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const GraphDb& g = reopened.value()->graph();
  EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
  EXPECT_EQ(g.FindNode("ann\nbob"), std::optional<NodeId>(0));
  EXPECT_EQ(g.alphabet().Find("knows\nwell"), std::optional<Symbol>(1));
  EXPECT_EQ(g.num_edges(), 2);
}

// ---- crash-point matrix -----------------------------------------------------

// Runs the standard workload (seed + kBatches CommitDeltas) against a
// fault-injected data dir, returns how many batches acked. The Database
// is destroyed with the fault still armed — the crash.
constexpr int kBatches = 6;

int RunWorkload(const std::string& dir, FileSystem* fs) {
  DurabilityOptions durability;
  durability.fs = fs;
  auto opened = Database::OpenDurable(dir, durability, DeterministicOptions(),
                                      SeedGraph());
  if (!opened.ok()) return -1;  // crashed during open itself
  Database& db = *opened.value();
  int acked = 0;
  for (int i = 0; i < kBatches; ++i) {
    auto committed = db.CommitDelta(BatchN(i));
    if (committed.ok()) {
      EXPECT_EQ(acked, i) << "acks must form a prefix";
      ++acked;
    }
  }
  return acked;
}

// Fingerprints of the graph after seed + first r batches, r = 0..k.
std::vector<std::string> TwinPrefixes() {
  std::vector<std::string> prefixes;
  Database twin(SeedGraph(), DeterministicOptions());
  prefixes.push_back(Fingerprint(twin));
  for (int i = 0; i < kBatches; ++i) {
    twin.ApplyDelta(BatchN(i));
    prefixes.push_back(Fingerprint(twin));
  }
  return prefixes;
}

struct FaultCase {
  const char* name;
  int FaultPlan::* counter;
  int torn_bytes;
};

TEST(DurabilityCrashMatrix, EveryFaultPointRecoversToAnAckedPrefix) {
  const std::vector<std::string> prefixes = TwinPrefixes();

  // Count the clean run's operations per type.
  int total_ops;
  {
    TempDir clean;
    auto plan = std::make_shared<FaultPlan>();
    FaultInjectingFileSystem fs(PosixFileSystem(), plan);
    int acked = RunWorkload(clean.path(), &fs);
    ASSERT_EQ(acked, kBatches);
    std::lock_guard<std::mutex> lock(plan->mutex);
    total_ops = plan->ops_seen;
  }
  ASSERT_GT(total_ops, 10);

  const FaultCase cases[] = {
      {"append", &FaultPlan::fail_append_after, 0},
      {"append-torn-1byte", &FaultPlan::fail_append_after, 1},
      {"append-short-write", &FaultPlan::fail_append_after, -1},
      {"sync", &FaultPlan::fail_sync_after, 0},
      {"rename", &FaultPlan::fail_rename_after, 0},
      {"remove", &FaultPlan::fail_remove_after, 0},
  };

  for (const FaultCase& fc : cases) {
    // Fault the Nth operation of the matching type for every N until a
    // run sails through unfaulted (the type's total count is below N).
    for (int n = 1; n <= total_ops; ++n) {
      TempDir dir;
      auto plan = std::make_shared<FaultPlan>();
      {
        std::lock_guard<std::mutex> lock(plan->mutex);
        (*plan).*fc.counter = n;
        plan->torn_bytes = fc.torn_bytes;
      }
      FaultInjectingFileSystem fs(PosixFileSystem(), plan);
      int acked = RunWorkload(dir.path(), &fs);
      bool fired;
      {
        std::lock_guard<std::mutex> lock(plan->mutex);
        fired = plan->tripped;
      }
      SCOPED_TRACE(std::string(fc.name) + " op " + std::to_string(n) +
                   ", acked " + std::to_string(acked));
      if (!fired) {
        EXPECT_EQ(acked, kBatches);
        break;  // fewer than n ops of this type exist
      }

      // The crash happened; recovery (clean disk) must succeed and land
      // on a twin prefix that covers every acked batch.
      plan->Reset();
      DurabilityOptions durability;
      auto reopened = Database::OpenDurable(dir.path(), durability,
                                            DeterministicOptions(),
                                            SeedGraph());
      ASSERT_TRUE(reopened.ok())
          << "recovery failed: " << reopened.status().ToString();
      std::string recovered = Fingerprint(*reopened.value());
      int matched = -1;
      for (size_t r = 0; r < prefixes.size(); ++r) {
        if (prefixes[r] == recovered) matched = static_cast<int>(r);
      }
      ASSERT_NE(matched, -1) << "recovered state is not any batch prefix";
      // acked == -1 means the crash hit OpenDurable itself (nothing
      // acked). Otherwise every acked batch must have survived.
      EXPECT_GE(matched, acked < 0 ? 0 : acked)
          << "acked batch lost in recovery";

      // And the recovered Database keeps working durably.
      auto committed = reopened.value()->CommitDelta(BatchN(100));
      EXPECT_TRUE(committed.ok()) << committed.status().ToString();
    }
  }
}

// ---- degraded mode ----------------------------------------------------------

TEST(DurabilityDegraded, AppendFaultRejectsWritesKeepsReadsThenProbes) {
  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingFileSystem fs(PosixFileSystem(), plan);
  DurabilityOptions durability;
  durability.fs = &fs;
  durability.probe_interval_ms = 0;  // probe on every rejected write
  auto opened = Database::OpenDurable(dir.path(), durability,
                                      DeterministicOptions(), SeedGraph());
  ASSERT_TRUE(opened.ok());
  Database& db = *opened.value();
  ASSERT_TRUE(db.CommitDelta(BatchN(0)).ok());

  // ENOSPC from here on.
  {
    std::lock_guard<std::mutex> lock(plan->mutex);
    plan->fail_append_after = 1;
  }
  auto rejected = db.CommitDelta(BatchN(1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("DEGRADED"), std::string::npos);
  EXPECT_TRUE(db.write_degraded());
  // The rejected batch must not have touched the graph.
  EXPECT_EQ(db.applied_lsn(), 1u);

  // Reads keep serving while degraded.
  auto rows = db.Execute("Ans(x) <- (x, p, y), 'step'(p)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().tuples().size(), 1u);

  // Legacy ApplyDelta reports the rejection instead of lying.
  auto summary = db.ApplyDelta(BatchN(1));
  EXPECT_TRUE(summary.rejected);

  // Disk heals; the next probe (or probing write) recovers.
  plan->Reset();
  EXPECT_TRUE(db.ProbeDurability());
  EXPECT_FALSE(db.write_degraded());
  auto committed = db.CommitDelta(BatchN(1));
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  // The whole story survives a restart.
  std::string fingerprint = Fingerprint(db);
  opened.value().reset();
  auto reopened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                        DeterministicOptions(), GraphDb());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
}

TEST(DurabilityDegraded, MutateGraphCheckpointFailureBlocksUntilProbe) {
  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingFileSystem fs(PosixFileSystem(), plan);
  DurabilityOptions durability;
  durability.fs = &fs;
  durability.probe_interval_ms = 0;
  auto opened = Database::OpenDurable(dir.path(), durability,
                                      DeterministicOptions(), SeedGraph());
  ASSERT_TRUE(opened.ok());
  Database& db = *opened.value();

  // MutateGraph's required checkpoint fails at the publish rename: the
  // in-memory graph is now ahead of anything recoverable.
  {
    std::lock_guard<std::mutex> lock(plan->mutex);
    plan->fail_rename_after = 1;
  }
  db.MutateGraph([](GraphDb& g) {
    g.AddEdge(g.AddNode("mx"), "mlabel", g.AddNode("my"));
  });
  EXPECT_TRUE(db.write_degraded());
  auto rejected = db.CommitDelta(BatchN(0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Probe republishes the checkpoint once the disk heals.
  plan->Reset();
  EXPECT_TRUE(db.ProbeDurability());
  EXPECT_FALSE(db.write_degraded());
  ASSERT_TRUE(db.CommitDelta(BatchN(0)).ok());

  std::string fingerprint = Fingerprint(db);
  opened.value().reset();
  auto reopened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                        DeterministicOptions(), GraphDb());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The MutateGraph edge and the post-recovery batch both survived.
  EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
  EXPECT_TRUE(reopened.value()->graph().FindNode("mx").has_value());
}

// A disk that fails one append — writing `torn_bytes` of it first — and
// then works again, unlinks included (FaultPlan faults are sticky).
class OneAppendFaultFs : public FaultInjectingFileSystem {
 public:
  OneAppendFaultFs()
      : FaultInjectingFileSystem(PosixFileSystem(),
                                 std::make_shared<FaultPlan>()) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto base = PosixFileSystem()->NewWritableFile(path, truncate);
    if (!base.ok()) return base.status();
    return std::unique_ptr<WritableFile>(
        new File(std::move(base).value(), this));
  }

  int fail_append_after = 0;  // 1 = the next append
  size_t torn_bytes = 0;

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> base, OneAppendFaultFs* fs)
        : base_(std::move(base)), fs_(fs) {}
    Status Append(const void* data, size_t n) override {
      if (fs_->fail_append_after > 0 && --fs_->fail_append_after == 0) {
        base_->Append(data, std::min(n, fs_->torn_bytes));
        return Status::Unavailable("injected write fault");
      }
      return base_->Append(data, n);
    }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    OneAppendFaultFs* fs_;
  };
};

// A checkpoint streams in chunks: a failure on a later chunk, clean or
// torn, publishes nothing and leaves no .tmp behind, and the next probe
// republishes it.
TEST(DurabilityDegraded, CheckpointFailingMidStreamPublishesNothing) {
  for (size_t torn_bytes : {size_t{0}, size_t{100}}) {
    SCOPED_TRACE("torn bytes " + std::to_string(torn_bytes));
    TempDir dir;
    OneAppendFaultFs fs;
    DurabilityOptions durability;
    durability.fs = &fs;
    durability.probe_interval_ms = 0;
    // No compaction: on this small seed the first batch would fold and
    // checkpoint at LSN 1 itself, the LSN the MutateGraph below publishes.
    DatabaseOptions options = DeterministicOptions();
    options.compact_delta_fraction = 1e9;
    auto opened = Database::OpenDurable(dir.path(), durability, options,
                                        SeedGraph());
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    ASSERT_TRUE(db.CommitDelta(BatchN(0)).ok());

    // An image of three chunks whose second Append fails.
    fs.fail_append_after = 2;
    fs.torn_bytes = torn_bytes;
    db.MutateGraph([](GraphDb& g) {
      const NodeId first = g.AddNodes(1000);
      const Symbol label = g.alphabet_ptr()->Intern("bulk");
      std::vector<Edge> edges;
      for (int i = 0; i < 300000; ++i) {
        edges.push_back({first + i % 1000, label, first + (i * 7) % 1000});
      }
      g.AddEdges(edges);
    });
    EXPECT_EQ(fs.fail_append_after, 0) << "the fault did not fire";
    EXPECT_TRUE(db.write_degraded());
    auto names = fs.ListDir(dir.path());
    ASSERT_TRUE(names.ok());
    for (const std::string& name : names.value()) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_NE(name, CheckpointName(1));
    }
    EXPECT_TRUE(fs.FileExists(dir.path() + "/" + CheckpointName(0)));

    EXPECT_TRUE(db.ProbeDurability());
    EXPECT_FALSE(db.write_degraded());
    EXPECT_TRUE(fs.FileExists(dir.path() + "/" + CheckpointName(1)));
    const std::string fingerprint = Fingerprint(db);
    EXPECT_GT(fingerprint.size(), 2 * kCheckpointChunkBytes);
    opened.value().reset();
    auto reopened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                          DeterministicOptions(), GraphDb());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
  }
}

// ---- fsync policies ---------------------------------------------------------

TEST(Durability, IntervalAndNeverPoliciesFlushOnDemand) {
  for (FsyncPolicy policy : {FsyncPolicy::kInterval, FsyncPolicy::kNever}) {
    TempDir dir;
    DurabilityOptions durability;
    durability.fsync = policy;
    durability.fsync_interval_ms = 10000;  // flusher never fires in-test
    auto opened = Database::OpenDurable(dir.path(), durability,
                                        DeterministicOptions(), SeedGraph());
    ASSERT_TRUE(opened.ok());
    Database& db = *opened.value();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(db.CommitDelta(BatchN(i)).ok());
    EXPECT_EQ(db.durable_log()->stats().last_lsn, 3u);
    // The drain path: FlushDurable makes everything durable now.
    ASSERT_TRUE(db.FlushDurable().ok());
    EXPECT_EQ(db.durable_log()->stats().durable_lsn, 3u);

    std::string fingerprint = Fingerprint(db);
    opened.value().reset();
    auto reopened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                          DeterministicOptions(), GraphDb());
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(Fingerprint(*reopened.value()), fingerprint);
  }
}

// ---- randomized property test ----------------------------------------------

// 100 random mutation batches through crash+recover vs an uncrashed
// twin: after every crash/reopen cycle the durable Database must be
// byte-identical to the twin that never crashed (fsync=always: acked
// means recoverable, and every batch here is acked).
TEST(DurabilityProperty, RandomBatchesSurviveRepeatedCrashes) {
  TempDir dir;
  uint64_t rng = 0x9e3779b97f4a7c15ull;  // fixed seed: deterministic
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  Database twin(SeedGraph(), DeterministicOptions());
  auto opened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                      DeterministicOptions(), SeedGraph());
  ASSERT_TRUE(opened.ok());

  for (int i = 0; i < 100; ++i) {
    GraphMutation m;
    int adds = static_cast<int>(next() % 4);
    for (int a = 0; a <= adds; ++a) {
      std::string from = "r" + std::to_string(next() % 40);
      std::string to = "r" + std::to_string(next() % 40);
      std::string label = "l" + std::to_string(next() % 5);
      m.add_edges.push_back({from, label, to});
      if (next() % 8 == 0) {
        // Sometimes remove what we just added (multiset semantics) or a
        // probably-absent edge (skipped, counted).
        m.remove_edges.push_back(next() % 2 == 0
                                     ? m.add_edges.back()
                                     : EdgeSpec{from, "missing", to});
      }
    }
    if (next() % 10 == 0) m.add_nodes.push_back("");  // anonymous nodes

    auto committed = opened.value()->CommitDelta(m);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    twin.ApplyDelta(m);

    if (next() % 7 == 0) {
      // Crash and recover; the twin never does.
      opened.value().reset();
      opened = Database::OpenDurable(dir.path(), DurabilityOptions{},
                                     DeterministicOptions(), GraphDb());
      ASSERT_TRUE(opened.ok())
          << "crash " << i << ": " << opened.status().ToString();
      ASSERT_EQ(Fingerprint(*opened.value()), Fingerprint(twin))
          << "diverged after crash at batch " << i;
    }
  }
  EXPECT_EQ(Fingerprint(*opened.value()), Fingerprint(twin));
}

// ---- degraded-mode serving --------------------------------------------------

TEST(DurabilityServing, DegradedServerRejectsWritesKeepsReading) {
  TempDir dir;
  auto plan = std::make_shared<FaultPlan>();
  FaultInjectingFileSystem fs(PosixFileSystem(), plan);
  DurabilityOptions durability;
  durability.fs = &fs;
  durability.probe_interval_ms = 0;
  auto opened = Database::OpenDurable(dir.path(), durability,
                                      DeterministicOptions(), SeedGraph());
  ASSERT_TRUE(opened.ok());
  Database& db = *opened.value();

  ServingOptions options;
  options.port = 0;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Healthy: MUTATE acks.
  uint64_t nodes = 0, edges = 0;
  ASSERT_TRUE(client.Mutate({{"ann", "coauthor", "bob"}}, &nodes, &edges).ok());

  // Disk dies.
  {
    std::lock_guard<std::mutex> lock(plan->mutex);
    plan->fail_append_after = 1;
  }
  Status rejected = client.Mutate({{"x", "l", "y"}}, &nodes, &edges);
  ASSERT_FALSE(rejected.ok());
  // The typed error crosses the wire: kUnavailable + DEGRADED marker.
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("DEGRADED"), std::string::npos);

  // Reads still serve, and STATS reports the degraded flag.
  uint32_t stmt_id = 0;
  ASSERT_TRUE(
      client.Prepare("Ans(x) <- (x, p, y), 'advisor'(p)", &stmt_id).ok());
  Client::RowsPage page;
  ASSERT_TRUE(client.Execute(stmt_id, {}, &page).ok());
  EXPECT_EQ(page.rows.size(), 2u);
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("wal.enabled=1"), std::string::npos);
  EXPECT_NE(stats.find("wal.degraded=1"), std::string::npos);
  EXPECT_NE(stats.find("server.mutations_rejected=1"), std::string::npos);

  // Disk heals: the next probing write recovers and acks.
  plan->Reset();
  EXPECT_TRUE(db.ProbeDurability());
  ASSERT_TRUE(client.Mutate({{"x", "l", "y"}}, &nodes, &edges).ok());
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("wal.degraded=0"), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace ecrpq
