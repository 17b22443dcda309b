// Shared machinery of the benchmark program: wall-clock spans, the read-back
// checker, the closed-loop tenant, and the simulator drive loop.
//
// The benchmark works only from outside the program: it calls the public API
// (TestBed, VirtualDisk, Cluster, Master, Simulator) and times its own calls.
// Everything the program does happens inside Simulator::RunUntil/Step; every
// action the benchmark takes during a run (phase changes, the crash, the final
// read-back) runs inside a simulator event, so an untraced run (RunUntil
// slices) and a traced run (one Step at a time) simulate exactly the same
// thing.
#ifndef URSABENCH_BENCH_H_
#define URSABENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"

namespace ursabench {

using ursa::Nanos;

// Wall-clock nanoseconds on the monotonic clock.
inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Resident set size now and at its peak (VmRSS / VmHWM), in KiB.
uint64_t RssKb();
uint64_t PeakRssKb();

// Value at quantile q in [0, 1] of `v` (nearest rank; reorders v).
template <typename T>
double Quantile(std::vector<T>& v, double q);

// ---- Spans ----
//
// In a traced run every benchmark call into a layer is recorded as a span: name,
// wall start/end, the enclosing span, and the id of the I/O it belongs to (0
// for set-up work). Spans stay in memory and are written out at exit. A
// simulator Step becomes a "sim.step" span only when benchmark code runs inside
// it (a completion callback), so the file holds the steps that matter without
// one record per event.
class SpanLog {
 public:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 for none
    uint64_t req;    // I/O id shared by all spans of one request; 0 = none
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span nested in the innermost open one. Returns its index, or -1
  // when tracing is off.
  int Begin(const char* name, uint64_t req);
  void End(int index);
  // A closed interval that nests in nothing (phases, which begin and end in
  // different simulator events).
  void Mark(const char* name, int64_t start_ns, int64_t end_ns);

  // Drive-loop hooks around one Simulator::Step.
  void StepBegin(int64_t now_ns);
  // Returns the wall time the benchmark's spans took inside this step.
  int64_t StepEnd(int64_t now_ns);

  // Sum of durations of spans named `name`.
  int64_t TotalNs(const char* name) const;

  // One JSON object per line: name, start/end (ns since the first span),
  // parent index, req.
  void WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int32_t> stack_;
  bool in_step_ = false;
  int64_t step_start_ = 0;
  int32_t step_span_ = -1;
  int64_t step_nested_ns_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t req = 0)
      : log_(log), index_(log->Begin(name, req)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// ---- Payloads and the read-back checker ----

// Fills `out` with the bytes write `tag` puts at sectors [lba, lba+n): every
// sector encodes (tag, lba), so stale, misplaced or torn data never matches.
void FillPayload(uint32_t tag, uint64_t lba, uint64_t sectors, uint8_t* out);

// Tracks, per 512-byte sector of one disk, the last acknowledged write, and
// checks read-back bytes against it. Two in-flight writes that overlap have
// no defined order, so their sectors become unknown until a later write
// lands that overlapped nothing in flight. A read overlapping a write that
// was in flight at any point during the read is not checked on those
// sectors. Sectors never written must read as zeros.
class ReadChecker {
 public:
  static constexpr uint64_t kSector = 512;
  static constexpr uint32_t kUnknown = UINT32_MAX;

  explicit ReadChecker(uint64_t disk_bytes);

  void BeginWrite(uint64_t offset, uint64_t length);
  void EndWrite(uint64_t offset, uint64_t length, uint32_t tag, bool ok);

  // Returns the token EndRead needs.
  struct ReadToken {
    uint32_t issue_seq = 0;
    std::vector<uint8_t> busy;  // per sector: a write was in flight at issue
  };
  ReadToken BeginRead(uint64_t offset, uint64_t length) const;
  // Compares the bytes; adds to the checked and mismatched sector counts.
  void EndRead(uint64_t offset, uint64_t length, const uint8_t* data, const ReadToken& token,
               uint64_t* checked, uint64_t* mismatched) const;

 private:
  std::vector<uint32_t> tag_;         // last landed write; 0 = zeros
  std::vector<uint32_t> last_issue_;  // write_seq_ of the last write issued
  std::vector<uint16_t> inflight_;
  std::vector<uint8_t> conflict_;
  uint32_t write_seq_ = 0;
};

// ---- Results of one run ----

struct OpStats {
  std::vector<int64_t> read_ns;   // simulated latency of each measured read
  std::vector<int64_t> write_ns;  // and write
  uint64_t attempted = 0;         // every foreground op, any phase
  uint64_t failed = 0;            // non-OK status or read-back mismatch
  uint64_t checked_sectors = 0;   // read-back sectors compared
  uint64_t mismatched_sectors = 0;
  uint64_t measured_ops = 0;
  uint64_t measured_write_bytes = 0;
};

// ---- Per-run context ----

class Tenant;

class Bench {
 public:
  explicit Bench(bool traced) : spans_(traced) {}

  bool traced() const { return spans_.enabled(); }
  SpanLog& spans() { return spans_; }
  OpStats& ops() { return ops_; }
  ursa::sim::Simulator& sim() { return bed_->sim(); }
  ursa::core::TestBed& bed() { return *bed_; }

  // Builds the TestBed (span core.testbed_build).
  void Build(const ursa::core::SystemProfile& profile);
  // TestBed::NewDisk / NewDiskOn, timed as client.open.
  ursa::client::VirtualDisk* OpenDisk(ursa::cluster::Machine* host, uint64_t size,
                                      int replication, int stripe_group);

  uint64_t NextRequestId() { return ++next_req_; }
  uint32_t NextWriteTag() { return ++next_tag_; }

  // Measured-window bookkeeping, called from simulator events.
  void StartMeasured();
  void EndMeasured();

  // Runs the simulator until `*done` is set. Aborts the run if the event
  // queue empties or simulated time passes `sim_limit` first.
  void Drive(const bool* done, Nanos sim_limit);

  // ---- measurements ----
  int64_t measure_start_wall() const { return measure_start_wall_; }
  int64_t measure_end_wall() const { return measure_end_wall_; }
  Nanos measure_start_sim() const { return measure_start_sim_; }
  Nanos measure_end_sim() const { return measure_end_sim_; }
  uint64_t rss_start_kb() const { return rss_start_kb_; }
  uint64_t rss_end_kb() const { return rss_end_kb_; }
  uint64_t events_measured() const { return events_at_end_ - events_at_start_; }
  std::vector<uint32_t>& event_self_ns() { return event_self_ns_; }
  std::vector<uint32_t>& submit_ns() { return submit_ns_; }
  int64_t loop_self_ns() const { return loop_self_ns_; }
  size_t pending_max() const { return pending_max_; }
  int64_t testbed_build_ns() const { return testbed_build_ns_; }
  int64_t open_ns() const { return open_ns_; }

  // Per-call timing of VirtualDisk::Read/Write (traced runs, measured
  // window only).
  void RecordSubmit(int64_t ns) {
    if (traced() && measuring_) {
      submit_ns_.push_back(static_cast<uint32_t>(ns));
    }
  }

  // A closed-loop tenant on `disk`, owned by the Bench. With `checked`,
  // its writes carry real payloads and every read is checked.
  Tenant* NewTenant(ursa::client::VirtualDisk* disk, int queue_depth, bool checked);
  // Sum over tenants of each one's measured IOPS: the fleet's throughput as
  // its VMs see it, without the idle tail of whichever VM finishes last.
  double SimIops() const;

  // Callbacks run when the measured window opens / closes (registry
  // snapshots for the per-layer diffs).
  std::function<void()> on_measure_start;
  std::function<void()> on_measure_end;

 private:
  SpanLog spans_;
  OpStats ops_;
  std::unique_ptr<ursa::core::TestBed> bed_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  // use bed_'s disks
  uint64_t next_req_ = 0;
  uint32_t next_tag_ = 0;

  bool measuring_ = false;
  int64_t measure_start_wall_ = 0;
  int64_t measure_end_wall_ = 0;
  Nanos measure_start_sim_ = 0;
  Nanos measure_end_sim_ = 0;
  uint64_t rss_start_kb_ = 0;
  uint64_t rss_end_kb_ = 0;

  uint64_t events_ = 0;
  uint64_t events_at_start_ = 0;
  uint64_t events_at_end_ = 0;
  std::vector<uint32_t> event_self_ns_;
  std::vector<uint32_t> submit_ns_;
  int64_t loop_self_ns_ = 0;
  size_t pending_max_ = 0;
  int64_t testbed_build_ns_ = 0;
  int64_t open_ns_ = 0;
};

// ---- Closed-loop tenant ----

struct Op {
  bool is_write = false;
  uint64_t offset = 0;
  uint32_t length = 0;
};

// One VM: a disk driven closed-loop at a fixed queue depth through a list of
// ops. With a checker, writes carry real payloads and every read is checked;
// without one, ops are timing-only (null payloads).
class Tenant {
 public:
  Tenant(Bench* bench, ursa::client::VirtualDisk* disk, int queue_depth, bool checked);

  // Issues ops[begin, end) closed-loop; calls `drained` (inside a simulator
  // event) once the last one completes. `record` puts latencies and bytes in
  // the measured-window stats.
  void Run(const std::vector<Op>* ops, size_t begin, size_t end, bool record,
           std::function<void()> drained);

  // One op outside any closed loop (cold-tenant writes, the final read-back).
  void Issue(const Op& op, bool record, std::function<void()> done);

  // Measured ops per simulated second, from this tenant's first measured
  // issue to its last measured completion (0 when it recorded nothing).
  double MeasuredIops() const;

 private:
  void IssueNext();
  void RecordCompletion(Nanos start);

  Bench* bench_;
  ursa::client::VirtualDisk* disk_;
  int queue_depth_;
  std::unique_ptr<ReadChecker> checker_;  // null for timing-only tenants

  const std::vector<Op>* ops_ = nullptr;
  size_t next_ = 0;
  size_t end_ = 0;
  int outstanding_ = 0;
  bool record_ = false;
  std::function<void()> drained_;

  uint64_t measured_ops_ = 0;
  Nanos measured_first_ = -1;
  Nanos measured_last_ = 0;
};

}  // namespace ursabench

#endif  // URSABENCH_BENCH_H_
