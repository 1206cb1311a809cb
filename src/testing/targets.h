#ifndef STRDB_TESTING_TARGETS_H_
#define STRDB_TESTING_TARGETS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fsa/accept.h"
#include "fsa/codegen/program.h"
#include "fsa/fsa.h"
#include "fsa/kernel.h"
#include "relational/algebra.h"
#include "relational/relation.h"
#include "testing/differential.h"
#include "testing/generators.h"
#include "testing/mem_env.h"

namespace strdb {
namespace testgen {

// --- kernel vs Theorem 3.3 reference ---------------------------------------
//
// Case: a random k-FSA (raw random or compiled from a random string
// formula; one-way and two-way) plus a batch of random tuples, half of
// them correlated so accepting paths are actually exercised.  Oracle:
// AcceptsWithStats (the reference BFS) and AcceptScratch::Accept (the
// compiled kernel) must agree on ok-ness, status codes and verdicts,
// and the kernel's one-way classification must match the transition
// table.
class KernelDiffTarget : public DiffTarget {
 public:
  struct KernelCase : Case {
    explicit KernelCase(Fsa f) : fsa(std::move(f)) {}
    Fsa fsa;
    std::vector<Tuple> tuples;
  };

  std::string name() const override { return "kernel"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 protected:
  // The kernel side of the diff, overridable so the mutation self-test
  // (tests/conformance_test.cc) can plant a deliberately wrong kernel
  // and prove the harness catches, shrinks and reports it.
  virtual Result<AcceptStats> FastVerdict(const AcceptKernel& kernel,
                                          const Tuple& tuple) const;

 private:
  mutable AcceptScratch scratch_;
};

// --- DFA codegen tier vs kernel vs Theorem 3.3 reference --------------------
//
// Case: a random k-FSA (compiled formulas, raw random machines and the
// deliberate 2^n subset-blowup family), a batch of tuples, an optional
// per-evaluator step budget and an optional forced subset-construction
// cap.  Three-way oracle: on machines the DFA tier compiles, the
// bytecode interpreter (scalar AND batch), the CSR kernel and the
// reference BFS must agree on verdicts and typed-error codes; machines
// it refuses must be refused with exactly kUnimplemented (outside the
// one-way move-deterministic class) or kResourceExhausted (past the
// caps) — the codes Acceptor::Compile silently routes past.  A
// budgeted run must return the unbudgeted verdict or kResourceExhausted,
// never a wrong verdict.
class DfaDiffTarget : public DiffTarget {
 public:
  struct DfaCase : Case {
    explicit DfaCase(Fsa f) : fsa(std::move(f)) {}
    Fsa fsa;
    std::vector<Tuple> tuples;
    int64_t budget_steps = 0;  // 0 = run unbudgeted only
    int max_states = 0;        // 0 = default cap; > 0 forces the cap
  };

  std::string name() const override { return "dfa"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 private:
  mutable AcceptScratch kernel_scratch_;
  mutable DfaScratch dfa_scratch_;
};

// --- engine vs naïve evaluator ---------------------------------------------
//
// Case: a random small database, a random algebra expression and an
// optional resource budget.  Oracles: the naïve tree-walking
// EvalAlgebra, the full engine and a rewrites-off/cache-off engine must
// return identical relations (or all fail); a budgeted execution must
// either return exactly the unbudgeted answer or fail with
// kResourceExhausted — never wrong tuples.
class EngineDiffTarget : public DiffTarget {
 public:
  struct EngineCase : Case {
    EngineCase(Database d, AlgebraExpr e)
        : db(std::move(d)), expr(std::move(e)) {}
    Database db;
    AlgebraExpr expr;
    bool budgeted = false;
    int64_t budget_steps = 0;  // 0 = unlimited in that dimension
    int64_t budget_rows = 0;
  };

  EngineDiffTarget();

  std::string name() const override { return "engine"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 private:
  FsaPool pool_;
  // Shared across cases on purpose: cross-case artifact-cache reuse is
  // part of what the sweep should exercise.  Answers must not depend on
  // cache state — that is the property under test.
  mutable Engine engine_;
  mutable Engine plain_engine_;
};

// --- serialize → deserialize → re-serialize --------------------------------
//
// Case: a random FSA plus an optional byte mutation (bit flip or prefix
// cut) of its serialized text.  Oracle: the unmutated text must
// round-trip byte-identically; a mutated text must either be rejected
// with a typed code (kInvalidArgument / kUnimplemented / kDataLoss) or
// deserialize to a machine whose re-serialization round-trips — never
// crash, never fail with an untyped code.
class RoundtripTarget : public DiffTarget {
 public:
  enum class Mutation : uint8_t { kNone, kFlip, kCut };

  struct RoundtripCase : Case {
    explicit RoundtripCase(Fsa f) : fsa(std::move(f)) {}
    Fsa fsa;
    Mutation mutation = Mutation::kNone;
    int64_t offset = 0;  // flip/cut position, reduced mod text size
    int bit = 0;         // flip bit index, 0-7
  };

  std::string name() const override { return "roundtrip"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;
};

// --- catalog open → mutate → crash → recover -------------------------------
//
// Case: a workload of catalog mutations (puts, inserts, drops,
// automaton installs, checkpoints) and a crash point.  The workload
// runs against a FaultInjectingEnv over a MemEnv, dies at the crash
// point (with a torn write when it lands on an append), and the store
// is reopened on the surviving bytes.  Oracle: recovery must succeed
// and yield exactly the catalog some committed prefix of the
// acknowledged mutations produced (the acked state, or one past it when
// the dying op's append reached "disk" in full), with every recovered
// automaton passing its checksum.
class StorageRecoverTarget : public DiffTarget {
 public:
  struct StorageOp {
    enum class Kind : uint8_t { kPut, kInsert, kDrop, kFsa, kCheckpoint };
    Kind kind = Kind::kPut;
    std::string name;
    int arity = 1;
    std::vector<Tuple> tuples;
    std::string key;       // kFsa
    std::string fsa_text;  // kFsa
  };

  struct StorageCase : Case {
    std::vector<StorageOp> ops;
    // Reduced mod (total env ops + slack) at run time, so every value
    // is meaningful and shrinking the workload keeps it so.
    uint64_t crash_at_raw = 0;
    uint64_t torn_seed = 0;
  };

  std::string name() const override { return "storage"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 protected:
  // Called between the crash and recovery, overridable so the mutation
  // self-test can corrupt committed WAL bytes behind recovery's back
  // and prove the committed-prefix oracle catches the loss.
  virtual void CorruptBeforeRecovery(MemEnv* env,
                                     const std::string& dir) const;
};

// --- paged (out-of-core) storage vs in-memory oracle -----------------------
//
// Two modes under one target name, mixed by generation:
//
//   diff   a random database is pushed through a CatalogStore with a
//          small spill threshold and checkpointed, so relations land in
//          the paged heap format (DESIGN.md §10).  A random algebra
//          expression is then evaluated three ways: the naive evaluator
//          over the original in-memory database (the oracle), the naive
//          evaluator over snapshot + paged set (materialise-on-touch),
//          and the engine with streaming PagedScan.  All three must
//          agree tuple-for-tuple (or all fail alike).  Additionally:
//          every relation must live in exactly one of the snapshot and
//          the paged set, spilled relations must materialise back to
//          exactly their source tuples, the buffer pool must end with
//          zero pinned bytes and never exceed its byte cap, and a
//          close/reopen must recover the identical catalog.
//
//   crash  the StorageRecoverTarget discipline pointed at spilling
//          checkpoints: a workload of puts/inserts/drops/checkpoints
//          runs over a FaultInjectingEnv with the spill threshold
//          engaged, dies at a case-chosen fault-op, and recovery on the
//          surviving bytes must yield exactly a committed prefix of the
//          acknowledged mutations — with spilled relations compared by
//          materialised contents, so the paged representation cannot
//          hide a loss.
class PagerDiffTarget : public DiffTarget {
 public:
  enum class Mode : uint8_t { kDiff, kCrash };

  struct PagerOp {
    enum class Kind : uint8_t { kPut, kInsert, kDrop, kCheckpoint };
    Kind kind = Kind::kPut;
    std::string name;
    int arity = 1;
    std::vector<Tuple> tuples;
  };

  struct PagerCase : Case {
    Mode mode = Mode::kDiff;
    int64_t spill_threshold = 1;
    int64_t pager_capacity = 0;
    // kDiff: the catalog under test and the expression diffed over it.
    Database db{Alphabet::Binary()};
    AlgebraExpr expr = AlgebraExpr::SigmaStar();
    // kCrash: the mutation workload and the crash point (reduced mod
    // the workload's fault-op count at run time, like StorageCase).
    std::vector<PagerOp> ops;
    uint64_t crash_at_raw = 0;
    uint64_t torn_seed = 0;
  };

  PagerDiffTarget();

  std::string name() const override { return "pager"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 private:
  std::optional<Divergence> RunDiff(const PagerCase& pc) const;
  std::optional<Divergence> RunCrash(const PagerCase& pc) const;

  FsaPool pool_;
  // Shared across cases like EngineDiffTarget's: artifact-cache reuse
  // across paged evaluations is part of what the sweep exercises.
  mutable Engine engine_;
};

// --- cost-based planner vs written order vs naïve evaluator ----------------
//
// Two modes under one target name, mixed by generation:
//
//   diff   a random database and algebra expression, evaluated four
//          ways: the naive tree-walking evaluator (the oracle), the
//          engine with the cost-based DP planner on and statistics
//          supplied, the same engine with no statistics supplied (the
//          engine computes its own through the epoch cache), and the
//          engine with product reordering off (the written order).  All
//          four must agree tuple-for-tuple or all fail alike — plan
//          shape must never change answers.  Half of the statistics-fed
//          runs are handed deliberately *stale* statistics (computed
//          from the catalog before heavy deletes), which must still
//          yield correct answers: statistics are advisory, never load-
//          bearing.  The cost-planner run's per-operator estimates must
//          additionally be sane — finite, non-negative, no NaN.
//
//   crash  a workload of puts/inserts/drops/checkpoints runs against a
//          CatalogStore over a MemEnv with spilling on.  Oracle: the
//          store's statistics must cover exactly the spilled relations
//          and equal a full recomputation from their heaps, and a
//          close + reopen — reading the kStats snapshot ops and
//          replaying the WAL suffix, whose inserts and drops take
//          relations out of the spilled set — must reproduce the
//          pre-close statistics map *exactly* and still match.
class PlannerDiffTarget : public DiffTarget {
 public:
  enum class Mode : uint8_t { kDiff, kCrash };

  struct PlannerOp {
    enum class Kind : uint8_t { kPut, kInsert, kDrop, kCheckpoint };
    Kind kind = Kind::kPut;
    std::string name;
    int arity = 1;
    std::vector<Tuple> tuples;
  };

  struct PlannerCase : Case {
    Mode mode = Mode::kDiff;
    // kDiff: the catalog under test and the expression diffed over it.
    Database db{Alphabet::Binary()};
    AlgebraExpr expr = AlgebraExpr::SigmaStar();
    // kDiff: when set, statistics are computed from `stale_db` (the
    // catalog before deletions) instead of `db`.
    bool stale_stats = false;
    Database stale_db{Alphabet::Binary()};
    // kCrash: the mutation workload; the spill threshold decides which
    // relations spill and so have statistics in the store.
    std::vector<PlannerOp> ops;
    int64_t spill_threshold = 0;
  };

  PlannerDiffTarget();

  std::string name() const override { return "planner"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;

 private:
  std::optional<Divergence> RunDiff(const PlannerCase& pc) const;
  std::optional<Divergence> RunCrash(const PlannerCase& pc) const;

  FsaPool pool_;
  // Shared across cases like EngineDiffTarget's engines: answers must
  // not depend on accumulated cache/feedback state — that independence
  // is part of what the sweep proves.
  mutable Engine cost_engine_;
  mutable Engine written_order_engine_;
};

// --- compiled-query cache vs fresh compilation ----------------------------
//
// Case: a pool of 2-4 query texts (relational atoms, random string
// formulae, guarded negation, and shapes outside the §5 class) and a
// sequence of ops over one catalog: queries of pool texts interleaved
// with random insert/rel/drop mutations, so a text recurs after its
// relations grew, shrank, vanished or got a new stats epoch.  Oracle:
// each query through Query::Parse — served by the process-wide
// compiled-query cache, so compiled under an earlier catalog (or an
// earlier case) and reused — and run on the engine must equal the same
// text compiled afresh by Query::Compile and run on the naive evaluator:
// the same parse verdict, exactly the same InferTruncation Result, and
// the same answer bytes (at the inferred limit, or at an explicit
// truncation).  Answers exhausting the case's resource budget on either
// side are not compared.
class QueryCacheDiffTarget : public DiffTarget {
 public:
  struct Op {
    enum class Kind : uint8_t { kQuery, kInsert, kRel, kDrop };
    Kind kind = Kind::kQuery;
    int text = 0;         // kQuery: index into the case's texts
    int truncation = -1;  // kQuery: -1 = inferred, else explicit
    std::string name;     // mutations
    int arity = 1;
    std::vector<Tuple> tuples;
  };

  struct QueryCacheCase : Case {
    std::vector<std::string> texts;
    std::vector<Op> ops;
  };

  std::string name() const override { return "query_cache"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;
};

// --- concurrent server vs serial replay ------------------------------------
//
// Case: N >= 2 sessions' command logs (the server grammar), hammered at
// a fresh in-process ServerCore concurrently, in one of three modes.
//
//   disjoint  every session works a private relation namespace
//             (S<i>R<j>), so its response stream depends only on its
//             own log.  Oracle: each session's concatenated responses
//             must be byte-identical to a serial replay of its log
//             (fresh catalog, one CommandProcessor per session).
//   overload  a serially-installed shared catalog, then read-only
//             queries fired at once, one caller thread per command,
//             against a tiny admission queue and a tiny global
//             in-flight budget.  Oracle: every response is either
//             byte-identical to its serial replay or ends in a typed
//             "err resource-exhausted" line (admission or budget) —
//             never wrong tuples.  A hang never returns, so the run's
//             own timeout reports it.
//   snapshot  one writer session republishes relation R while reader
//             sessions query it.  Oracle: every reader response equals
//             the serial response over exactly one published version of
//             R — a torn or mixed view matches none of them.
//
// This target drives ServerCore in-process (no sockets): the TCP layer
// adds only framing, which FrameResponse covers byte-for-byte.
class ServerDiffTarget : public DiffTarget {
 public:
  enum class Mode : uint8_t { kDisjoint, kOverload, kSnapshot };

  struct ServerCase : Case {
    Mode mode = Mode::kDisjoint;
    // Serial preamble installing shared state (overload/snapshot).
    std::vector<std::string> setup;
    // logs[i]: session i's commands.  Disjoint: full grammar over the
    // session's namespace, executed in order.  Overload/snapshot:
    // read-only queries, fired concurrently.
    std::vector<std::vector<std::string>> logs;
    // Snapshot mode: the writer session's commands (each "rel R ...").
    std::vector<std::string> writer;
    int64_t global_steps = 0;  // overload: global in-flight step budget
    int64_t queue_depth = 0;   // overload: admission bound (0 = none)
  };

  std::string name() const override { return "server"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;
};

// End-to-end chaos: real strdb_server processes under concurrent
// resilient clients, SIGKILL mid-workload, restart on the same --dir,
// and the acked-durability contract checked against a serial in-memory
// oracle.
//
// The server binary comes from the STRDB_SERVER_BIN environment
// variable (the conformance CLI's --server-bin flag sets it); Run
// reports a divergence when it is missing rather than silently passing.
//
// Per-client relation namespaces keep the clients' mutation logs
// commutative across clients, so the expected end state is each log
// replayed serially through an in-memory SharedCatalog regardless of
// the real interleaving.  Each client retries through kills with
// idempotent request tags, so every mutation is eventually acked and
// the contract collapses to three checkable facts: every client's
// response transcript matches serial replay byte-for-byte (lost-ack
// retries dedup to the identical text), the post-SIGKILL-recovery
// catalog matches serial replay (acked implies durable; no partial
// tuples, no duplicate applications across drop/recreate chains), and
// no client starves within its retry budget.
//
// Unlike the other targets, Run is deterministic only in what it
// *checks*, not in the interleaving it explores: the kill lands after
// `kill_after_acks` acknowledged mutations, wherever that falls.  A
// reproducer file replays the same workload and kill point, which in
// practice re-finds timing bugs within a few replays.
//
// Registered with FindTarget (so reproducers and `--target chaos`
// resolve it) but deliberately NOT in AllTargets(): `--target all`
// must stay process-spawn-free.
class ChaosTarget : public DiffTarget {
 public:
  struct ChaosCase : Case {
    uint64_t seed = 1;  // seeds client-side transport fault prefixes
    // logs[i]: client i's mutation commands over its private namespace.
    std::vector<std::vector<std::string>> logs;
    // SIGKILL the server once this many mutations have been acked
    // (0 = never; the run still ends with a kill-9 + recovery check).
    int64_t kill_after_acks = 0;
    // --spill threshold handed to the server (0 = in-memory catalog
    // persistence only).
    int64_t spill_threshold = 0;
    // > 0: wrap every client in a FaultyTransport dropping every Nth
    // transport op, exercising reconnect + dedup under network faults.
    int64_t drop_every = 0;
  };

  std::string name() const override { return "chaos"; }
  CasePtr Generate(RandomSource& rand) const override;
  std::optional<Divergence> Run(const Case& c) const override;
  std::string Serialize(const Case& c) const override;
  Result<CasePtr> Deserialize(const std::string& text) const override;
  std::vector<CasePtr> ShrinkCandidates(const Case& c) const override;
  int64_t CaseSize(const Case& c) const override;
};

// A catalog fingerprint used by the storage oracle and its divergence
// messages: relation names, arities and tuples, rendered canonically.
std::string CatalogSignature(const Database& db);

}  // namespace testgen
}  // namespace strdb

#endif  // STRDB_TESTING_TARGETS_H_
