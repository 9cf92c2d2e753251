#ifndef XRTREE_STORAGE_FAULT_INJECTION_H_
#define XRTREE_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "storage/disk_interface.h"
#include "storage/wal.h"

namespace xrtree {

/// Kinds of storage faults the FaultInjectingDisk can inject. Each fault is
/// armed against the Nth read or the Nth write (1-based, counted separately
/// per stream) and fires exactly once; kTornWrite and kCrash additionally
/// flip the disk into a persistent "power lost" state.
enum class FaultKind : uint8_t {
  /// The Nth read returns Status::IoError.
  kFailRead,
  /// The Nth write returns Status::IoError (nothing is written).
  kFailWrite,
  /// Like kFailRead, but models an EINTR-style transient: the error message
  /// says so and re-issuing the read succeeds (the fault is one-shot).
  kTransientRead,
  /// Transient write error; the retried write succeeds.
  kTransientWrite,
  /// The Nth write persists only its first `arg` bytes (the tail keeps the
  /// page's previous on-disk content), reports success, and the disk then
  /// behaves as if the machine lost power: all later writes are dropped.
  kTornWrite,
  /// The Nth write (and everything after it) is silently dropped: the
  /// caller sees success, the file never changes. Models power loss with a
  /// volatile write cache.
  kCrash,
  /// Like kTornWrite, but armed against the next write *to a specific
  /// page*: `op` holds the page id, `arg` the bytes persisted. Used for
  /// directed tests tearing the catalog header slots (pages 0/1).
  kTornWriteToPage,
};

/// One armed fault. `op` indexes the read stream for read kinds and the
/// write stream for write kinds — except kTornWriteToPage, where it holds
/// the target page id.
struct Fault {
  FaultKind kind;
  uint64_t op;
  uint32_t arg = 0;  ///< torn kinds: bytes of the new image persisted
};

/// A reproducible fault schedule. Derive one from a seed so every crash
/// test failure can be replayed from its seed alone.
struct FaultPlan {
  std::vector<Fault> faults;

  /// A randomized power-loss plan: crashes at a uniformly chosen write in
  /// [1, max_write_op], tearing that write (at a random byte boundary)
  /// about half the time. Deterministic in `seed`.
  static FaultPlan RandomCrashPlan(uint64_t seed, uint64_t max_write_op);
};

/// Sustained probabilistic fault mode: every read/write rolls seeded dice,
/// alongside (and after) the one-shot schedule. This is the chaos-harness
/// fault source — a flaky device that keeps being flaky for the whole run,
/// shared safely by join workers (whose demand misses read on their own
/// thread) and the read-ahead completion workers.
///
/// A transient read/write returns Status::TransientIoError and performs no
/// I/O; re-issuing the op rolls fresh dice. A corrupt read performs the
/// real read but hands back an image with one byte flipped — the file
/// itself stays intact, modelling a bit-flip on the wire or in a cache,
/// so a later clean re-read (or WAL repair) can recover.
struct SustainedFaultOptions {
  double transient_read_prob = 0.0;   ///< P(read fails TransientIoError)
  double corrupt_read_prob = 0.0;     ///< P(read returns a flipped image)
  double transient_write_prob = 0.0;  ///< P(write fails TransientIoError)
  uint64_t seed = 1;                  ///< all dice derive from this
  /// Stop injecting after this many sustained faults (0 = unlimited) — lets
  /// a test guarantee forward progress under aggressive probabilities.
  uint64_t max_faults = 0;
};

/// Power-loss state shared between a FaultInjectingDisk and any
/// FaultInjectingWalFile layered over the same database: one power event
/// must freeze both files at the same instant.
using PowerState = std::shared_ptr<std::atomic<bool>>;

/// A DiskInterface decorator that injects faults according to a schedule.
/// Wrap the real DiskManager with one of these to test that the buffer
/// pool, indexes and catalog surface (never swallow) storage errors, and
/// that reopening after a simulated crash either recovers or reports
/// corruption. Thread-safe; pass-through costs one mutex acquisition.
class FaultInjectingDisk : public DiskInterface {
 public:
  explicit FaultInjectingDisk(DiskInterface* base)
      : base_(base), power_lost_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Replaces the armed fault schedule and resets the power-loss state and
  /// the read/write op counters.
  void SetPlan(FaultPlan plan);

  /// Convenience single-fault armers (append to the current schedule;
  /// op counts are NOT reset).
  void FailNthRead(uint64_t n) { Arm({FaultKind::kFailRead, n, 0}); }
  void FailNthWrite(uint64_t n) { Arm({FaultKind::kFailWrite, n, 0}); }
  void TransientFailNthRead(uint64_t n) {
    Arm({FaultKind::kTransientRead, n, 0});
  }
  void TransientFailNthWrite(uint64_t n) {
    Arm({FaultKind::kTransientWrite, n, 0});
  }
  void TearNthWrite(uint64_t n, uint32_t bytes_persisted) {
    Arm({FaultKind::kTornWrite, n, bytes_persisted});
  }
  void CrashAtWrite(uint64_t n) { Arm({FaultKind::kCrash, n, 0}); }
  /// Tears the next write to `page_id` after `bytes_persisted` bytes, then
  /// drops power.
  void TearNextWriteToPage(PageId page_id, uint32_t bytes_persisted) {
    Arm({FaultKind::kTornWriteToPage, page_id, bytes_persisted});
  }

  /// Turns on sustained probabilistic faults (reseeding the dice) — see
  /// SustainedFaultOptions. One-shot scheduled faults still fire first and
  /// are unaffected. Safe to call while other threads are doing I/O.
  void EnableSustainedFaults(const SustainedFaultOptions& options);

  /// Turns sustained faults off; the fault counters keep their values.
  void DisableSustainedFaults();

  /// Makes ReadBatch serve its slots in a seeded-random order instead of
  /// front to back, modelling a device whose completions land out of order
  /// within one submission. Per-slot dice still roll in *service* order, so
  /// a one-shot "fail the Nth read" fault can hit a different slot of the
  /// batch than it would in order — exactly the nondeterminism the async
  /// completion path must tolerate. Deterministic in `seed`.
  void EnableCompletionReordering(uint64_t seed);
  void DisableCompletionReordering();

  /// Sustained transient read/write errors injected so far.
  uint64_t sustained_transient_faults() const;
  /// Sustained corrupt-read images handed back so far.
  uint64_t sustained_corrupt_faults() const;

  /// Drops power immediately: every later write/sync (on this disk and on
  /// any WalFile sharing power()) is silently discarded.
  void ForceCrash();

  /// True once a power-loss fault has fired; all writes and syncs are
  /// silently dropped from that point on.
  bool crashed() const;

  /// The shared power-loss flag, for wiring a FaultInjectingWalFile to the
  /// same simulated machine.
  const PowerState& power() const { return power_lost_; }

  uint64_t reads() const;
  uint64_t writes() const;
  uint64_t faults_injected() const;

  Status ReadPage(PageId page_id, char* out) override;
  /// Each slot goes through this disk's ReadPage, so each rolls the fault
  /// dice (scheduled and sustained) independently and bumps the read op
  /// counter — a batch of N pages is N chances to fail, exactly like N
  /// demand reads. Vectorization is a base-disk optimization the fault
  /// layer deliberately forgoes: fault coverage beats batching here.
  void ReadBatch(PageReadRequest* requests, size_t n) override;
  Status WritePage(PageId page_id, const char* in) override;
  PageId AllocatePage() override { return base_->AllocatePage(); }
  PageId num_pages() const override { return base_->num_pages(); }
  Status Sync() override;
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Arm(Fault f);
  /// Finds, consumes and returns the armed fault matching op `op` of the
  /// given stream (reads or writes) or targeting `page_id`, if any.
  /// mu_ held.
  bool TakeFault(bool is_write, uint64_t op, PageId page_id, Fault* out);

  /// Rolls the sustained-fault dice for one op. mu_ held. Returns the
  /// decision; for a corrupt read also draws the byte offset and non-zero
  /// XOR mask so the flip can be applied outside the lock.
  enum class SustainedRoll { kNone, kTransient, kCorrupt };
  SustainedRoll RollSustained(bool is_write, size_t* corrupt_at,
                              uint8_t* corrupt_mask);

  DiskInterface* const base_;
  mutable std::mutex mu_;
  std::vector<Fault> faults_;
  PowerState power_lost_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t faults_injected_ = 0;
  bool sustained_enabled_ = false;
  SustainedFaultOptions sustained_;
  Random sustained_rng_;
  uint64_t sustained_transient_ = 0;
  uint64_t sustained_corrupt_ = 0;
  bool reorder_enabled_ = false;
  Random reorder_rng_;
};

/// A WalFile decorator modelling power loss in the log stream. Shares the
/// power flag with the FaultInjectingDisk wrapping the same database's data
/// file, so a crash triggered on either side freezes both files at that
/// instant: later appends, truncates and syncs report success but change
/// nothing, keeping the on-disk log exactly as the crash left it.
class FaultInjectingWalFile final : public WalFile {
 public:
  FaultInjectingWalFile(WalFile* base, PowerState power)
      : base_(base), power_lost_(std::move(power)) {}

  /// The Nth append (1-based) persists only its first `keep_bytes` bytes
  /// (clamped to the append's size), then power is lost.
  void TearNthAppend(uint64_t n, uint64_t keep_bytes);

  /// The Nth append (and everything after it) is silently dropped: power
  /// is lost just before it reaches the file.
  void DropFromNthAppend(uint64_t n);

  uint64_t appends() const;

  Status Append(const void* data, size_t n) override;
  Status Sync() override;
  Result<uint64_t> Size() const override;
  Status ReadAt(uint64_t offset, void* out, size_t n) override;
  Status Truncate(uint64_t size) override;

 private:
  struct AppendFault {
    uint64_t op;
    uint64_t keep_bytes;  ///< bytes persisted before power loss
    bool drop;            ///< true: persist nothing at all
  };

  WalFile* const base_;
  PowerState power_lost_;
  mutable std::mutex mu_;
  std::vector<AppendFault> faults_;
  uint64_t appends_ = 0;
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_FAULT_INJECTION_H_
