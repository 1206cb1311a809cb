// Durability of src/storage: WAL framing and salvage, snapshot
// atomicity, retry/backoff under transient faults, and the headline
// crash-point sweep — for EVERY op index at which the deterministic
// fault env kills the process, reopening the directory must recover
// exactly a committed prefix of the workload: no partial tuples, no
// automaton failing its checksum, and engine answers on the recovered
// catalog equal to the in-memory answers for that prefix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "calculus/query.h"
#include "core/io/crc32.h"
#include "core/io/env.h"
#include "core/io/fault_env.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "fsa/serialize.h"
#include "relational/relation.h"
#include "storage/codec.h"
#include "storage/retry.h"
#include "storage/store.h"
#include "storage/wal.h"

namespace strdb {
namespace {

namespace fs = std::filesystem;

// Test directories live on tmpfs when the host has one: the crash sweep
// fsyncs thousands of times and must not hammer a real disk.
fs::path TestRoot() {
  static const fs::path root = [] {
    std::error_code ec;
    fs::path base = fs::exists("/dev/shm", ec) ? fs::path("/dev/shm")
                                               : fs::temp_directory_path();
    fs::path dir = base / ("strdb_storage_test." + std::to_string(::getpid()));
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
  }();
  return root;
}

std::string FreshDir(const std::string& name) {
  fs::path dir = TestRoot() / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  auto read = Env::Posix()->ReadFile(path);
  EXPECT_TRUE(read.ok()) << read.status();
  return read.ok() ? *read : "";
}

void WriteAll(const std::string& path, const std::string& data) {
  auto file = Env::Posix()->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->Append(data).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

// A small hand-built acceptor, distinct per `variant`, for exercising
// the automaton persistence path without dragging in the compiler.
Fsa TinyFsa(const Alphabet& sigma, int variant) {
  Fsa fsa(sigma, 1);
  int prev = 0;
  for (int i = 0; i <= variant % 3; ++i) {
    int next = fsa.AddState();
    EXPECT_TRUE(fsa.AddTransitionSpec(prev, next, variant % 2 ? "a" : "b", "+")
                    .ok());
    prev = next;
  }
  int final_state = fsa.AddState();
  EXPECT_TRUE(fsa.AddTransitionSpec(prev, final_state, ">", "0").ok());
  fsa.SetFinal(final_state);
  return fsa;
}

// --- CRC-32 ----------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Hex(0xCBF43926u), "cbf43926");
  uint32_t parsed = 0;
  EXPECT_TRUE(ParseCrc32Hex("cbf43926", &parsed));
  EXPECT_EQ(parsed, 0xCBF43926u);
  EXPECT_FALSE(ParseCrc32Hex("cbf4392", &parsed));   // short
  EXPECT_FALSE(ParseCrc32Hex("cbf4392g", &parsed));  // non-hex
}

// The bitwise definition of CRC-32: one shift per input bit, no tables.
uint32_t ReferenceCrc32(const unsigned char* bytes, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Crc32 folds eight bytes per step with a byte-at-a-time tail; it must
// agree with the bitwise definition at every length and alignment (so
// every tail length meets every start offset) and on page-sized buffers.
TEST(Crc32Test, MatchesTheBitwiseDefinition) {
  Rng rng(0xc3c32u);
  std::vector<unsigned char> buf(308 + 7);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(buf.data() + start, len),
                ReferenceCrc32(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
  std::vector<unsigned char> page(16 * 1024);
  for (int round = 0; round < 4; ++round) {
    for (unsigned char& b : page) b = static_cast<unsigned char>(rng.Next());
    EXPECT_EQ(Crc32(page.data(), page.size()),
              ReferenceCrc32(page.data(), page.size()));
  }
  std::fill(page.begin(), page.end(), 0xFF);
  EXPECT_EQ(Crc32(page.data(), page.size()),
            ReferenceCrc32(page.data(), page.size()));
}

// --- Env -------------------------------------------------------------------

TEST(EnvTest, PosixRoundTrip) {
  std::string dir = FreshDir("env");
  Env* env = Env::Posix();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());  // idempotent

  std::string path = dir + "/file";
  {
    auto file = env->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE((*file)->Append("hello ").ok());
    ASSERT_TRUE((*file)->Append("world").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_TRUE(env->FileExists(path));
  EXPECT_EQ(ReadAll(path), "hello world");

  {
    // truncate=false appends.
    auto file = env->NewWritableFile(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("!").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(ReadAll(path), "hello world!");

  auto listed = env->ListDir(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0], "file");

  ASSERT_TRUE(env->Truncate(path, 5).ok());
  EXPECT_EQ(ReadAll(path), "hello");

  std::string moved = dir + "/moved";
  ASSERT_TRUE(env->Rename(path, moved).ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_TRUE(env->FileExists(moved));
  ASSERT_TRUE(env->SyncDir(dir).ok());

  EXPECT_EQ(env->ReadFile(path).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(env->Remove(moved).ok());
  EXPECT_FALSE(env->FileExists(moved));
}

// --- WAL -------------------------------------------------------------------

std::vector<std::string> WalPayloads(int n) {
  std::vector<std::string> payloads;
  for (int i = 0; i < n; ++i) {
    // Payloads include newlines and "rec " look-alikes: framing must not
    // care what is inside a record.
    payloads.push_back("payload " + std::to_string(i) + "\nrec 7 deadbeef\n");
  }
  return payloads;
}

std::string WriteWalFile(const std::string& dir, int n) {
  EXPECT_TRUE(Env::Posix()->CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WalWriter writer(Env::Posix(), path, /*sync=*/true, RetryPolicy{});
  EXPECT_TRUE(writer.Open(/*truncate=*/true).ok());
  for (const std::string& payload : WalPayloads(n)) {
    EXPECT_TRUE(writer.Append(payload).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  return path;
}

TEST(WalTest, AppendAndReadBack) {
  std::string path = WriteWalFile(FreshDir("wal_rt"), 5);
  auto salvage = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(salvage.ok()) << salvage.status();
  ASSERT_EQ(salvage->records.size(), 5u);
  std::vector<std::string> expected = WalPayloads(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(salvage->records[i].payload, expected[i]);
  }
  EXPECT_EQ(salvage->valid_bytes, salvage->file_bytes);
  EXPECT_EQ(salvage->truncated_bytes, 0);
  EXPECT_TRUE(salvage->tail_error.empty());
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  std::string path = WriteWalFile(FreshDir("wal_torn"), 3);
  std::string bytes = ReadAll(path);
  // Cut mid-way through the last record's payload — a torn append.
  auto full = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(full.ok());
  int64_t cut = full->records[2].offset + 10;
  ASSERT_TRUE(Env::Posix()->Truncate(path, cut).ok());

  auto salvage = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(salvage.ok()) << salvage.status();
  EXPECT_EQ(salvage->records.size(), 2u);
  EXPECT_EQ(salvage->valid_bytes, full->records[2].offset);
  EXPECT_GT(salvage->truncated_bytes, 0);
  EXPECT_FALSE(salvage->tail_error.empty());
}

TEST(WalTest, FlippedByteCutsFromThatRecord) {
  std::string path = WriteWalFile(FreshDir("wal_flip"), 4);
  auto full = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(full.ok());
  std::string bytes = ReadAll(path);
  // Flip one payload byte inside record 1: records 0 stays, 1..3 go —
  // after a CRC failure nothing later can be trusted.
  int64_t victim = full->records[1].end_offset - 3;
  bytes[static_cast<size_t>(victim)] ^= 0x40;
  WriteAll(path, bytes);

  auto salvage = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(salvage.ok()) << salvage.status();
  EXPECT_EQ(salvage->records.size(), 1u);
  EXPECT_EQ(salvage->valid_bytes, full->records[1].offset);
  EXPECT_FALSE(salvage->tail_error.empty());
}

TEST(WalTest, GarbageTailIsCut) {
  std::string path = WriteWalFile(FreshDir("wal_garbage"), 2);
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes + "rec not-a-number zz\n");
  auto salvage = ReadWal(Env::Posix(), path, RetryPolicy{});
  ASSERT_TRUE(salvage.ok());
  EXPECT_EQ(salvage->records.size(), 2u);
  EXPECT_EQ(salvage->valid_bytes, static_cast<int64_t>(bytes.size()));
  EXPECT_FALSE(salvage->tail_error.empty());
}

// --- Fault env & retry -----------------------------------------------------

TEST(FaultEnvTest, CrashProducesDeterministicTornWrite) {
  const std::string data(100, 'x');
  auto run = [&](uint64_t seed) {
    std::string dir = FreshDir("fault_det_" + std::to_string(seed));
    EXPECT_TRUE(Env::Posix()->CreateDir(dir).ok());
    FaultInjectingEnv fenv(Env::Posix(), seed);
    FaultPlan plan;
    plan.crash_at_op = 1;  // op 0 = open, op 1 = the torn Append
    fenv.Reset(plan);
    auto file = fenv.NewWritableFile(dir + "/f", true);
    EXPECT_TRUE(file.ok());
    EXPECT_EQ((*file)->Append(data).code(), StatusCode::kUnavailable);
    EXPECT_TRUE(fenv.crashed());
    // Post-crash the env refuses everything.
    EXPECT_EQ(fenv.ReadFile(dir + "/f").status().code(),
              StatusCode::kUnavailable);
    return ReadAll(dir + "/f");
  };
  std::string a1 = run(7);
  std::string a2 = run(7);
  std::string b = run(8);
  EXPECT_EQ(a1, a2);                     // same seed → same torn prefix
  EXPECT_LT(a1.size(), data.size());     // strict prefix
  EXPECT_EQ(a1, data.substr(0, a1.size()));
  EXPECT_EQ(b, data.substr(0, b.size()));
}

TEST(FaultEnvTest, TransientFaultFailsExactlyOnce) {
  std::string dir = FreshDir("fault_transient");
  ASSERT_TRUE(Env::Posix()->CreateDir(dir).ok());
  FaultInjectingEnv fenv(Env::Posix(), 1);
  FaultPlan plan;
  plan.transient_at = {1};
  fenv.Reset(plan);
  auto file = fenv.NewWritableFile(dir + "/f", true);  // op 0
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->Append("x").code(),  // op 1: faulted
            StatusCode::kUnavailable);
  EXPECT_TRUE((*file)->Append("y").ok());          // op 2: fine
  EXPECT_FALSE(fenv.crashed());
  EXPECT_EQ(fenv.ops(), 3);
}

TEST(RetryTest, RetriesTransientFaultsWithBackoff) {
  FaultInjectingEnv fenv(Env::Posix(), 1);
  FaultPlan plan;
  plan.transient_at = {0, 1};  // first two attempts fail
  fenv.Reset(plan);
  Counter* counter = MetricsRegistry::Global().GetCounter("storage.io.retries");
  int64_t before = counter->value();
  int64_t retries = 0;
  std::string dir = FreshDir("retry_ok");
  ASSERT_TRUE(Env::Posix()->CreateDir(dir).ok());
  Status synced =
      RetryIo(&fenv, RetryPolicy{}, &retries, [&] { return fenv.SyncDir(dir); });
  EXPECT_TRUE(synced.ok()) << synced.ToString();
  EXPECT_EQ(retries, 2);
  EXPECT_GT(fenv.slept_ms(), 0);  // backoff requested (virtual time)
  EXPECT_GE(counter->value(), before + 2);
}

TEST(RetryTest, GivesUpAfterBudgetAndPropagatesOtherCodes) {
  FaultInjectingEnv fenv(Env::Posix(), 1);
  FaultPlan plan;
  plan.transient_every = 1;  // every op faults: the budget must run out
  fenv.Reset(plan);
  RetryPolicy policy;
  policy.max_retries = 3;
  int64_t retries = 0;
  std::string dir = FreshDir("retry_giveup");
  ASSERT_TRUE(Env::Posix()->CreateDir(dir).ok());
  Status status =
      RetryIo(&fenv, policy, &retries, [&] { return fenv.SyncDir(dir); });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(retries, 3);

  // Non-transient codes return immediately, no retry.
  retries = 0;
  Status not_found = RetryIo(Env::Posix(), policy, &retries, [&] {
    return Env::Posix()->ReadFile(dir + "/missing").status();
  });
  EXPECT_EQ(not_found.code(), StatusCode::kNotFound);
  EXPECT_EQ(retries, 0);
}

// An Env shim that records the exact SleepMs sequence (FaultInjectingEnv
// only totals it) — the backoff *schedule* is the unit under test here.
class SleepRecordingEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    return Env::Posix()->NewWritableFile(path, truncate);
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return Env::Posix()->ReadFile(path);
  }
  bool FileExists(const std::string& path) override {
    return Env::Posix()->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return Env::Posix()->ListDir(path);
  }
  Status CreateDir(const std::string& path) override {
    return Env::Posix()->CreateDir(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Env::Posix()->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return Env::Posix()->Remove(path);
  }
  Status Truncate(const std::string& path, int64_t size) override {
    return Env::Posix()->Truncate(path, size);
  }
  Status SyncDir(const std::string& path) override {
    return Env::Posix()->SyncDir(path);
  }
  void SleepMs(int64_t ms) override { sleeps.push_back(ms); }

  std::vector<int64_t> sleeps;
};

TEST(RetryTest, BackoffScheduleIsAPureFunctionOfPolicyAndSeed) {
  // The regression the jitter work demands: same (policy, jitter_seed)
  // must produce the identical sleep sequence run-to-run, and each
  // sleep must stay inside the equal-jitter envelope around the capped
  // doubling curve.
  RetryPolicy policy;
  policy.max_retries = 6;
  policy.backoff_initial_ms = 8;
  policy.backoff_cap_ms = 40;
  policy.jitter = 0.25;
  policy.jitter_seed = 0xfeedu;
  auto schedule = [&](uint64_t seed) {
    RetryPolicy p = policy;
    p.jitter_seed = seed;
    SleepRecordingEnv env;
    int64_t retries = 0;
    Status status = RetryIo(&env, p, &retries, [] {
      return Status::Unavailable("always transient");
    });
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(retries, 6);
    return env.sleeps;
  };
  std::vector<int64_t> a = schedule(0xfeedu);
  std::vector<int64_t> b = schedule(0xfeedu);
  std::vector<int64_t> c = schedule(0xfeedu + 1);
  EXPECT_EQ(a, b);            // same seed → bit-identical schedule
  EXPECT_NE(a, c);            // different seed → different jitter draws
  ASSERT_EQ(a.size(), 6u);    // one sleep per retry
  int64_t base = policy.backoff_initial_ms;
  for (int64_t ms : a) {
    // Equal jitter: [base*(1-j), base*(1+j)], after the per-sleep cap.
    EXPECT_GE(ms, base - base / 4);
    EXPECT_LE(ms, base + base / 4);
    base = std::min<int64_t>(base * 2, policy.backoff_cap_ms);
  }
}

TEST(RetryTest, TotalBackoffCapGivesUpEarlyAndCountsIt) {
  // With a 20ms total budget against an 8/16/32... schedule, the loop
  // must stop sleeping once the next backoff would blow the budget —
  // well before max_retries — and bump storage.io.retry_giveups.
  RetryPolicy policy;
  policy.max_retries = 50;
  policy.backoff_initial_ms = 8;
  policy.backoff_cap_ms = 1000;
  policy.total_backoff_cap_ms = 20;
  policy.jitter = 0.0;  // exact doubling: 8, 16 (24 total > 20 → stop)
  Counter* giveups =
      MetricsRegistry::Global().GetCounter("storage.io.retry_giveups");
  int64_t before = giveups->value();
  SleepRecordingEnv env;
  int64_t retries = 0;
  Status status = RetryIo(&env, policy, &retries, [] {
    return Status::Unavailable("always transient");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(giveups->value(), before + 1);
  EXPECT_LT(retries, 50);  // the time budget bound, not the count budget
  int64_t total = 0;
  for (int64_t ms : env.sleeps) total += ms;
  EXPECT_LE(total, policy.total_backoff_cap_ms);
}

// --- Codec -----------------------------------------------------------------

TEST(CodecTest, OpsRoundTripThroughTheCodec) {
  Alphabet sigma = Alphabet::Binary();
  CatalogOp put;
  put.kind = CatalogOp::kPut;
  put.name = "R with spaces\nand newline";
  put.arity = 2;
  put.tuples = {{"ab", ""}, {"", "ba"}};
  CatalogOp drop;
  drop.kind = CatalogOp::kDrop;
  drop.name = put.name;
  CatalogOp fsa_op;
  fsa_op.kind = CatalogOp::kFsa;
  fsa_op.key = "key\nwith\nnewlines";
  fsa_op.fsa_text = SerializeFsa(TinyFsa(sigma, 1));
  for (const CatalogOp& op : {put, drop, fsa_op}) {
    auto decoded = DecodeOp(EncodeOp(op));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->kind, op.kind);
    EXPECT_EQ(decoded->name, op.name);
    EXPECT_EQ(decoded->tuples, op.tuples);
    EXPECT_EQ(decoded->key, op.key);
    EXPECT_EQ(decoded->fsa_text, op.fsa_text);
  }
}

TEST(CodecTest, MalformedOpsAreDataLoss) {
  CatalogOp drop;
  drop.kind = CatalogOp::kDrop;
  drop.name = "R";
  std::string good = EncodeOp(drop);
  for (const std::string& bad :
       {std::string("bogus 1:R\n"), good + "trailing", good.substr(0, 5),
        std::string("put 1:R x 1\n")}) {
    auto decoded = DecodeOp(bad);
    ASSERT_FALSE(decoded.ok()) << "accepted: " << bad;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

// Regression: a corrupt-but-checksummed payload used to reach
// op.tuples.reserve(count) with a count as large as 2^40 and die on
// std::bad_alloc instead of returning the typed corruption error every
// other malformed byte gets.  Counts and length prefixes must be
// validated against the bytes actually present before any allocation.
TEST(CodecTest, HostileCountsAreDataLossNotBadAlloc) {
  const std::string huge = std::to_string(int64_t{1} << 40);
  const std::vector<std::string> hostiles = {
           // Tuple count claims 2^40 tuples in an empty body.
      "put 1:R 1 " + huge + "\n",
      "ins 1:R " + huge + "\n",
      // A large-but-plausible count with no tuple lines behind it.
      "put 1:R 1 1000000\n",
      // Per-tuple arity the remaining bytes cannot possibly hold.
      "put 1:R 2 1\nu 1000000 0:\n",
      // String length prefix overrunning the payload.
      "put 1:R 1 1\nu 1 " + huge + ":x\n",
      "fsa 3:key " + huge + ":x\n",
  };
  for (const std::string& hostile : hostiles) {
    auto decoded = DecodeOp(hostile);
    ASSERT_FALSE(decoded.ok()) << "accepted: " << hostile;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << hostile;
  }
}

// Exhaustive robustness sweep over the codec: for every op kind, every
// single-byte flip and every prefix cut of the encoded payload must
// decode to either an op or a typed error — never a crash, hang, or
// runaway allocation — and any mutant the decoder accepts must also go
// through ApplyOp without crashing (its Status may of course be an
// error; corrupt automata, unknown relations, etc.).
TEST(CodecTest, EveryByteFlipAndPrefixCutDecodesOrFailsCleanly) {
  Alphabet sigma = Alphabet::Binary();
  CatalogOp put;
  put.kind = CatalogOp::kPut;
  put.name = "R";
  put.arity = 2;
  put.tuples = {{"ab", ""}, {"ba", "abba"}};
  CatalogOp ins;
  ins.kind = CatalogOp::kInsert;
  ins.name = "R";
  ins.tuples = {{"a", "b"}};
  CatalogOp drop;
  drop.kind = CatalogOp::kDrop;
  drop.name = "R";
  CatalogOp fsa_op;
  fsa_op.kind = CatalogOp::kFsa;
  fsa_op.key = "some\nkey";
  fsa_op.fsa_text = SerializeFsa(TinyFsa(sigma, 2));
  CatalogOp spill;
  spill.kind = CatalogOp::kSpill;
  spill.name = "Q";
  spill.arity = 1;
  spill.max_string_length = 8;
  spill.tuple_count = 200;
  spill.file = "heap-3-0";

  int64_t mutants = 0, accepted = 0;
  auto check = [&](const std::string& mutant) {
    ++mutants;
    auto decoded = DecodeOp(mutant);
    if (!decoded.ok()) return;  // a typed error is a fine outcome
    ++accepted;
    Database db(sigma);
    ASSERT_TRUE(db.Put("R", 2, {{"aa", "bb"}}).ok());
    std::map<std::string, std::string> automata;
    (void)ApplyOp(*decoded, sigma, &db, &automata);  // must not crash
  };

  for (const CatalogOp& op : {put, ins, drop, fsa_op, spill}) {
    const std::string good = EncodeOp(op);
    ASSERT_TRUE(DecodeOp(good).ok());
    for (size_t i = 0; i < good.size(); ++i) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
      check(flipped);
      flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
      check(flipped);
    }
    for (size_t cut = 0; cut < good.size(); ++cut) {
      check(good.substr(0, cut));
    }
  }
  // The unmutated payloads decode; sanity-check the sweep actually ran.
  EXPECT_GT(mutants, 500);
  std::cout << "codec-mutation-sweep: mutants=" << mutants
            << " accepted=" << accepted << "\n";
}

// --- Store -----------------------------------------------------------------

std::string CatalogSig(const Database& db) {
  std::string out;
  for (const auto& [name, rel] : db.relations()) {
    out += name + "/" + std::to_string(rel.arity()) + "=" + rel.ToString() +
           ";";
  }
  return out;
}

TEST(StoreTest, MutationsSurviveReopen) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_rt");
  RecoveryReport report;
  auto store = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_FALSE(report.opened_existing);
  ASSERT_TRUE((*store)->PutRelation("R", 1, {{"ab"}, {"ba"}}).ok());
  ASSERT_TRUE((*store)->InsertTuples("R", {{"aab"}}).ok());
  ASSERT_TRUE((*store)->PutRelation("Gone", 1, {{"a"}}).ok());
  ASSERT_TRUE((*store)->DropRelation("Gone").ok());
  Fsa fsa = TinyFsa(sigma, 2);
  ASSERT_TRUE((*store)->InstallAutomaton("key-1", fsa).ok());
  // Re-installing identical content must not grow the log.
  ASSERT_TRUE((*store)->InstallAutomaton("key-1", fsa).ok());
  std::string sig = CatalogSig((*store)->db());
  ASSERT_TRUE((*store)->Close().ok());

  auto reopened = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(report.opened_existing);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.wal_records_replayed, 5);  // dedup dropped the 6th
  EXPECT_EQ(report.wal_bytes_truncated, 0);
  EXPECT_EQ(CatalogSig((*reopened)->db()), sig);
  ASSERT_EQ((*reopened)->automata().count("key-1"), 1u);
  EXPECT_EQ((*reopened)->automata().at("key-1"), SerializeFsa(fsa));

  // Validation failures must not reach the log.
  EXPECT_FALSE((*reopened)->PutRelation("Bad", 1, {{"xyz"}}).ok());
  EXPECT_FALSE((*reopened)->InsertTuples("Missing", {{"a"}}).ok());
  EXPECT_FALSE((*reopened)->DropRelation("Missing").ok());
}

TEST(StoreTest, CheckpointFoldsTheLogAndReopensFromSnapshot) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_ckpt");
  auto store = CatalogStore::Open(dir, sigma);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutRelation("R", 1, {{"ab"}}).ok());
  ASSERT_TRUE((*store)->InstallAutomaton("k", TinyFsa(sigma, 0)).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  EXPECT_EQ((*store)->generation(), 1);
  ASSERT_TRUE((*store)->InsertTuples("R", {{"ba"}}).ok());
  std::string sig = CatalogSig((*store)->db());
  ASSERT_TRUE((*store)->Close().ok());

  RecoveryReport report;
  auto reopened = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.generation, 1);
  EXPECT_EQ(report.wal_records_replayed, 1);  // only the post-checkpoint op
  EXPECT_EQ(CatalogSig((*reopened)->db()), sig);
  EXPECT_EQ((*reopened)->automata().size(), 1u);

  // A second checkpoint retires the old generation's files.
  ASSERT_TRUE((*reopened)->Checkpoint().ok());
  EXPECT_FALSE(Env::Posix()->FileExists(dir + "/snap-1"));
  EXPECT_FALSE(Env::Posix()->FileExists(dir + "/wal-1"));
  EXPECT_TRUE(Env::Posix()->FileExists(dir + "/snap-2"));
}

// The store keeps statistics for spilled relations only: the checkpoint
// that spills a relation computes them, snapshots persist them as kStats
// side-ops, and they go when the relation stops being spilled.

StatsMap StoreStats(const CatalogStore& store) {
  std::shared_ptr<const Database> db;
  std::shared_ptr<const PagedSet> paged;
  std::shared_ptr<const StatsMap> stats;
  store.SnapshotState(&db, &paged, &stats);
  return *stats;
}

TEST(StoreTest, StatisticsCoverExactlyTheSpilledRelations) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_stats_spill");
  StoreOptions options;
  options.spill_threshold_bytes = 1;
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok());
  const std::vector<Tuple> r = {{"ab"}, {"ba"}, {""}};
  const std::vector<Tuple> p = {{"a", "bb"}, {"", "a"}};
  ASSERT_TRUE((*store)->PutRelation("R", 1, r).ok());
  ASSERT_TRUE((*store)->PutRelation("P", 2, p).ok());
  EXPECT_TRUE(StoreStats(**store).empty());

  ASSERT_TRUE((*store)->Checkpoint().ok());
  ASSERT_EQ((*store)->PagedDb()->size(), 2u);
  StatsMap want;
  want["R"] = ComputeRelationStats(*StringRelation::Create(1, r));
  want["P"] = ComputeRelationStats(*StringRelation::Create(2, p));
  EXPECT_TRUE(StoreStats(**store) == want);
  ASSERT_TRUE((*store)->Close().ok());

  auto reopened = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(StoreStats(**reopened) == want);

  // Inserting materialises R and dropping removes P: neither is spilled
  // any more, so neither keeps statistics in the store.
  ASSERT_TRUE((*reopened)->InsertTuples("R", {{"bb"}}).ok());
  ASSERT_TRUE((*reopened)->DropRelation("P").ok());
  EXPECT_TRUE((*reopened)->PagedDb()->empty());
  EXPECT_TRUE(StoreStats(**reopened).empty());
  ASSERT_TRUE((*reopened)->Close().ok());

  // The snapshot still carries both kStats ops; replaying the insert and
  // the drop takes them out again.
  RecoveryReport report;
  auto again = CatalogStore::Open(dir, sigma, options, &report);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(report.wal_records_replayed, 2);
  EXPECT_TRUE(StoreStats(**again).empty());
  auto rel = (*again)->db().Get("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 4);
}

TEST(StoreTest, TornWalTailIsSalvagedOnOpen) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_torn");
  auto store = CatalogStore::Open(dir, sigma);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutRelation("R", 1, {{"ab"}}).ok());
  ASSERT_TRUE((*store)->PutRelation("S", 1, {{"ba"}}).ok());
  ASSERT_TRUE((*store)->Close().ok());

  // A torn append: half a frame dangling off the log.
  std::string wal = dir + "/wal-0";
  WriteAll(wal, ReadAll(wal) + "rec 999 00000000\npartial");

  RecoveryReport report;
  auto reopened = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.wal_records_replayed, 2);
  EXPECT_GT(report.wal_bytes_truncated, 0);
  EXPECT_FALSE(report.wal_tail_error.empty());
  EXPECT_TRUE((*reopened)->db().Has("R"));
  EXPECT_TRUE((*reopened)->db().Has("S"));
  // The repaired log accepts appends again, and they survive.
  ASSERT_TRUE((*reopened)->PutRelation("T", 1, {{"a"}}).ok());
  ASSERT_TRUE((*reopened)->Close().ok());
  auto again = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(report.wal_records_replayed, 3);
  EXPECT_EQ(report.wal_bytes_truncated, 0);
  EXPECT_TRUE((*again)->db().Has("T"));
}

TEST(StoreTest, CorruptSnapshotIsDataLossNotSilentLoss) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_snapflip");
  auto store = CatalogStore::Open(dir, sigma);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutRelation("R", 1, {{"ab"}}).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  ASSERT_TRUE((*store)->Close().ok());

  std::string snap = dir + "/snap-1";
  std::string bytes = ReadAll(snap);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteAll(snap, bytes);

  auto reopened = CatalogStore::Open(dir, sigma);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST(StoreTest, UnsupportedSnapshotVersionIsTyped) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_snapver");
  ASSERT_TRUE(Env::Posix()->CreateDir(dir).ok());
  // Hand-craft a future-versioned snapshot with a VALID checksum: the
  // reader must fail on the version, not the crc.
  std::string body = "strdbsnap 99\nalphabet 2:ab\nops 0\n";
  uint32_t crc = Crc32(body);
  WriteAll(dir + "/snap-1", body + "crc32 " + Crc32Hex(crc) + "\n");
  WriteAll(dir + "/CURRENT", "1\n");
  auto opened = CatalogStore::Open(dir, sigma);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kUnimplemented);
}

TEST(StoreTest, AlphabetMismatchIsRejected) {
  std::string dir = FreshDir("store_alpha");
  {
    auto store = CatalogStore::Open(dir, Alphabet::Binary());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutRelation("R", 1, {{"ab"}}).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  Result<Alphabet> other = Alphabet::Create("abc");
  ASSERT_TRUE(other.ok());
  auto reopened = CatalogStore::Open(dir, *other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreTest, TransientFaultsAreAbsorbedByRetry) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_soak");
  FaultInjectingEnv fenv(Env::Posix(), 11);
  FaultPlan plan;
  plan.transient_every = 5;  // a flaky disk: every 5th op fails once
  fenv.Reset(plan);
  StoreOptions options;
  options.env = &fenv;
  Counter* counter = MetricsRegistry::Global().GetCounter("storage.io.retries");
  int64_t before = counter->value();

  RecoveryReport report;
  auto store = CatalogStore::Open(dir, sigma, options, &report);
  ASSERT_TRUE(store.ok()) << store.status();
  for (int i = 0; i < 20; ++i) {
    std::string name = "R";
    name += std::to_string(i);
    ASSERT_TRUE((*store)->PutRelation(name, 1, {{"ab"}}).ok());
  }
  ASSERT_TRUE((*store)->Checkpoint().ok());
  ASSERT_TRUE((*store)->Close().ok());
  EXPECT_GT(counter->value(), before);  // the retry counter is visible
  EXPECT_GT(fenv.slept_ms(), 0);        // backoff happened (virtual time)

  auto reopened = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.relations, 20);
}

TEST(StoreTest, ExhaustedRetriesFailTheMutationButNotTheStore) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_burnout");
  FaultInjectingEnv fenv(Env::Posix(), 3);
  fenv.Reset({});
  StoreOptions options;
  options.env = &fenv;
  options.retry.max_retries = 2;
  auto store = CatalogStore::Open(dir, sigma, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->PutRelation("A", 1, {{"a"}}).ok());

  // Reset rewinds the op counter; fault the next three attempts (one
  // initial try + two retries) — exactly exhausting the budget.
  FaultPlan plan;
  plan.transient_at = {0, 1, 2};
  fenv.Reset(plan);
  Status failed = (*store)->PutRelation("B", 1, {{"b"}});
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);

  // The store survives: later mutations commit, and recovery sees a
  // consistent catalog without B.
  ASSERT_TRUE((*store)->PutRelation("C", 1, {{"ba"}}).ok());
  ASSERT_TRUE((*store)->Close().ok());
  auto reopened = CatalogStore::Open(dir, sigma);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->db().Has("A"));
  EXPECT_FALSE((*reopened)->db().Has("B"));
  EXPECT_TRUE((*reopened)->db().Has("C"));
}

TEST(StoreTest, ConcurrentWritersSerialize) {
  Alphabet sigma = Alphabet::Binary();
  std::string dir = FreshDir("store_mt");
  auto store = CatalogStore::Open(dir, sigma);
  ASSERT_TRUE(store.ok());
  constexpr int kThreads = 4, kPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string name = "R";
        name += std::to_string(t);
        name += "_";
        name += std::to_string(i);
        EXPECT_TRUE((*store)->PutRelation(name, 1, {{"ab"}}).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE((*store)->Close().ok());
  RecoveryReport report;
  auto reopened = CatalogStore::Open(dir, sigma, {}, &report);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.relations, kThreads * kPerThread);
  EXPECT_EQ(report.wal_records_replayed, kThreads * kPerThread);
}

// --- The crash-point sweep -------------------------------------------------

// One step of the deterministic sweep workload.
struct MutOp {
  enum Kind { kPut, kInsert, kDrop, kFsa, kCheckpoint } kind = kPut;
  std::string name;
  int arity = 1;
  std::vector<Tuple> tuples;
  std::string key, text;
};

MutOp MutPut(std::string name, std::vector<Tuple> tuples) {
  MutOp op;
  op.kind = MutOp::kPut;
  op.name = std::move(name);
  op.tuples = std::move(tuples);
  return op;
}

MutOp MutInsert(std::string name, std::vector<Tuple> tuples) {
  MutOp op = MutPut(std::move(name), std::move(tuples));
  op.kind = MutOp::kInsert;
  return op;
}

MutOp MutDrop(std::string name) {
  MutOp op;
  op.kind = MutOp::kDrop;
  op.name = std::move(name);
  return op;
}

// A deterministic mixed workload: puts, inserts, drops, automaton
// installs and two mid-stream checkpoints.  Sized so a full run costs
// 200+ env ops — one crash point per op.
std::vector<MutOp> SweepWorkload(const Alphabet& sigma) {
  std::vector<MutOp> ops;
  Rng rng(2026);
  auto tuple = [&] {
    Tuple t;
    int len = rng.Range(0, 3);
    std::string s;
    for (int i = 0; i < len; ++i) s.push_back(rng.Coin() ? 'a' : 'b');
    t.push_back(s);
    return t;
  };
  // The relation the sampled engine queries run against; never dropped.
  ops.push_back(MutPut("Q", {{"ab"}, {"ba"}, {""}}));
  std::vector<std::string> live;
  for (int i = 0; i < 104; ++i) {
    int pick = rng.Range(0, 9);
    if (pick <= 4 || live.empty()) {
      std::string name = "R" + std::to_string(i);
      ops.push_back(MutPut(name, {tuple(), tuple()}));
      live.push_back(name);
    } else if (pick <= 6) {
      const std::string& target =
          live[static_cast<size_t>(
              rng.Range(0, static_cast<int>(live.size()) - 1))];
      ops.push_back(MutInsert(target, {tuple()}));
    } else if (pick == 7) {
      size_t victim = static_cast<size_t>(
          rng.Range(0, static_cast<int>(live.size()) - 1));
      ops.push_back(MutDrop(live[victim]));
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      MutOp op;
      op.kind = MutOp::kFsa;
      op.key = "fsa-key-" + std::to_string(i % 5);
      op.text = SerializeFsa(TinyFsa(sigma, i % 5));
      ops.push_back(op);
    }
    if (i == 34 || i == 69) {
      MutOp ckpt;
      ckpt.kind = MutOp::kCheckpoint;
      ops.push_back(ckpt);
    }
  }
  return ops;
}

Status ApplyToStore(CatalogStore* store, const MutOp& op) {
  switch (op.kind) {
    case MutOp::kPut:
      return store->PutRelation(op.name, op.arity, op.tuples);
    case MutOp::kInsert:
      return store->InsertTuples(op.name, op.tuples);
    case MutOp::kDrop:
      return store->DropRelation(op.name);
    case MutOp::kFsa:
      return store->InstallAutomatonText(op.key, op.text);
    case MutOp::kCheckpoint:
      return store->Checkpoint();
  }
  return Status::Internal("unreachable");
}

void ApplyToShadow(const MutOp& op, Database* db,
                   std::map<std::string, std::string>* automata) {
  switch (op.kind) {
    case MutOp::kPut:
      ASSERT_TRUE(db->Put(op.name, op.arity, op.tuples).ok());
      return;
    case MutOp::kInsert:
      ASSERT_TRUE(db->InsertTuples(op.name, op.tuples).ok());
      return;
    case MutOp::kDrop:
      ASSERT_TRUE(db->Remove(op.name).ok());
      return;
    case MutOp::kFsa:
      (*automata)[op.key] = op.text;
      return;
    case MutOp::kCheckpoint:
      return;  // state-preserving
  }
}

// The property at the heart of the tentpole: for EVERY op index k, a
// process that dies at its k-th I/O operation (with a torn write if op
// k was an append) leaves a directory from which Open() recovers
// exactly the catalog some committed prefix of the workload produced.
TEST(CrashSweepTest, EveryCrashPointRecoversACommittedPrefix) {
  Alphabet sigma = Alphabet::Binary();
  std::vector<MutOp> ops = SweepWorkload(sigma);

  // Shadow states: shadow[j] = catalog after the first j mutations
  // (checkpoints excluded — they do not change the catalog).
  std::vector<Database> shadow_db;
  std::vector<std::map<std::string, std::string>> shadow_fsa;
  {
    Database db(sigma);
    std::map<std::string, std::string> automata;
    shadow_db.push_back(db);
    shadow_fsa.push_back(automata);
    for (const MutOp& op : ops) {
      if (op.kind == MutOp::kCheckpoint) continue;
      ApplyToShadow(op, &db, &automata);
      shadow_db.push_back(db);
      shadow_fsa.push_back(automata);
    }
  }
  // Maps "k-th mutation" to its index in `ops` (to see what comes next).
  std::vector<size_t> mutation_at;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != MutOp::kCheckpoint) mutation_at.push_back(i);
  }

  // Dry run against the fault env with no faults, to learn the total op
  // count — the sweep then crashes at every single index.
  int64_t total_ops = 0;
  {
    FaultInjectingEnv fenv(Env::Posix(), 0);
    fenv.Reset({});
    StoreOptions options;
    options.env = &fenv;
    auto store = CatalogStore::Open(FreshDir("sweep_dry"), sigma, options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const MutOp& op : ops) ASSERT_TRUE(ApplyToStore(store->get(), op).ok());
    ASSERT_TRUE((*store)->Close().ok());
    total_ops = fenv.ops();
  }
  ASSERT_GE(total_ops, 200) << "workload too small for a meaningful sweep";

  const std::string query_text =
      "x | exists y: Q(y) & ([x,y]l(x = y))* . [x,y]l(x = y = ~)";
  int points = 0, exact_acked = 0, one_past = 0, sampled_queries = 0;
  int64_t bytes_truncated_total = 0, torn_tails = 0;
  for (int64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k));
    std::string dir = FreshDir("sweep_k");
    FaultInjectingEnv fenv(Env::Posix(), 0x5eed0000 + static_cast<uint64_t>(k));
    FaultPlan plan;
    plan.crash_at_op = k;
    fenv.Reset(plan);
    StoreOptions options;
    options.env = &fenv;

    int acked = 0;
    bool failed_op_mutates = false;
    {
      auto store = CatalogStore::Open(dir, sigma, options);
      if (store.ok()) {
        for (const MutOp& op : ops) {
          Status status = ApplyToStore(store->get(), op);
          if (!status.ok()) {
            failed_op_mutates = op.kind != MutOp::kCheckpoint;
            break;
          }
          if (op.kind != MutOp::kCheckpoint) ++acked;
        }
        // The store dies with the process: the destructor's close fails
        // against the crashed env, which must be harmless.
      }
    }
    ASSERT_TRUE(fenv.crashed());

    // "Restart": recovery with a healthy filesystem must succeed and
    // yield the state of a committed prefix — either exactly the acked
    // mutations, or one more when the crash hit an op whose append had
    // already reached the disk in full.
    RecoveryReport report;
    auto recovered = CatalogStore::Open(dir, sigma, {}, &report);
    ASSERT_TRUE(recovered.ok())
        << "recovery must never fail: " << recovered.status();
    std::string sig = CatalogSig((*recovered)->db());
    int matched = -1;
    for (int j = acked; j <= acked + (failed_op_mutates ? 1 : 0); ++j) {
      if (j >= static_cast<int>(shadow_db.size())) break;
      if (sig == CatalogSig(shadow_db[static_cast<size_t>(j)]) &&
          (*recovered)->automata() == shadow_fsa[static_cast<size_t>(j)]) {
        matched = j;
        break;
      }
    }
    ASSERT_NE(matched, -1)
        << "recovered state is not a committed prefix: acked=" << acked
        << " sig=" << sig << " report=" << report.ToString();
    matched == acked ? ++exact_acked : ++one_past;

    // No automaton may recover with a bad checksum.
    for (const auto& [key, text] : (*recovered)->automata()) {
      ASSERT_TRUE(DeserializeFsa(sigma, text).ok()) << key;
    }
    bytes_truncated_total += report.wal_bytes_truncated;
    if (report.wal_bytes_truncated > 0) ++torn_tails;

    // Sampled end-to-end check: the engine's answer on the recovered
    // catalog equals the answer on the in-memory prefix state.
    if (k % 13 == 0 && matched > 0) {
      Result<Query> q = Query::Parse(query_text, sigma);
      ASSERT_TRUE(q.ok()) << q.status();
      auto from_disk = q->Execute((*recovered)->db(), {});
      auto from_memory =
          q->Execute(shadow_db[static_cast<size_t>(matched)], {});
      ASSERT_TRUE(from_disk.ok()) << from_disk.status();
      ASSERT_TRUE(from_memory.ok()) << from_memory.status();
      EXPECT_EQ(*from_disk, *from_memory);
      ++sampled_queries;
    }
    ++points;
  }
  EXPECT_GE(points, 200);
  // Published in EXPERIMENTS.md; keep the line greppable.
  std::cout << "crash-sweep: points=" << points << " exact=" << exact_acked
            << " one-past=" << one_past << " torn-tails=" << torn_tails
            << " bytes-truncated=" << bytes_truncated_total
            << " engine-checks=" << sampled_queries << "\n";
}

}  // namespace
}  // namespace strdb
