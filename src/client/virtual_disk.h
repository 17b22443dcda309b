// The richly-featured Ursa client (§5.1): the portal that turns a VM's block
// requests into the replication protocol.
//
// Responsibilities, matching the paper:
//   * striping (§3.4): logical offsets interleave across a striping group of
//     chunks at a fixed stripe unit; large requests fan out to many chunks
//     and complete out of order, joined per user request;
//   * per-chunk write ordering: writes to one chunk carry consecutive version
//     numbers and are pipelined one-at-a-time (the "lock contention" that
//     makes Fig. 9's sequential-write IOPS much lower than reads);
//   * client-directed replication (§3.2): writes <= Tc go to all replicas in
//     parallel from the client; larger writes are primary-driven (Fig. 5);
//   * commit rule (§4.1): all-success, or majority-after-timeout;
//   * primary switching and failure reporting (§4.2): on timeout the client
//     retries against a backup as temporary primary and notifies the master,
//     refreshing the layout after the view change;
//   * the client process event loop is a single-threaded resource — its
//     per-request cost is the client-side CPU term of Fig. 7.
#ifndef URSA_CLIENT_VIRTUAL_DISK_H_
#define URSA_CLIENT_VIRTUAL_DISK_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/buffer.h"
#include "src/common/histogram.h"
#include "src/common/rate_limiter.h"
#include "src/common/rng.h"
#include "src/ec/reed_solomon.h"

namespace ursa::client {

struct VirtualDiskClientOptions {
  Nanos request_timeout = msec(800);   // per-attempt replica timeout
  int max_attempts = 4;                // retries across primary switches
  uint64_t tiny_write_threshold = cluster::kTinyWriteThreshold;  // Tc
  bool client_directed = true;         // Ursa replicates tiny writes itself
  Nanos commit_timeout = msec(200);    // majority-commit authorization delay
  Nanos loop_issue_cost = usec(4);     // client event-loop CPU per issue
  Nanos loop_complete_cost = usec(3);  // and per completion
  Nanos vmm_overhead = usec(55);       // NBD/QEMU fixed path cost (each way)
  // Per-byte client-side cost (NBD socket + VMM copies), charged on the
  // event loop with the sub-request that carries the bytes (~2.9 GB/s).
  double loop_byte_cost_ns = 0.35;

  // ---- Retry hardening (see DESIGN.md "Fault model & chaos harness") ----
  // Bounded exponential backoff between failed attempts: attempt k waits
  // base * 2^(k-1) capped at max, with deterministic jitter (half fixed, half
  // uniform from the client's seeded rng). 0 base disables backoff.
  Nanos retry_backoff_base = msec(2);
  Nanos retry_backoff_max = msec(100);
  // Consecutive per-chunk timeouts tolerated on the same primary before
  // switching and reporting to the master: one latency spike (gray-slow disk,
  // transient queueing) should not thrash views. Explicit failures and
  // integrity errors switch immediately. 1 = switch on first timeout.
  int primary_switch_hysteresis = 2;
};

struct ClientStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t retries = 0;
  uint64_t throttled_writes = 0;
  uint64_t primary_switches = 0;
  uint64_t failures_reported = 0;
  // Error classification (timeout vs explicit-fail vs integrity).
  uint64_t timeouts = 0;           // per-attempt rpc timeouts
  uint64_t explicit_failures = 0;  // replica said no (mismatch, unavailable…)
  uint64_t integrity_errors = 0;   // kCorruption: CRC-failed / quarantined data
  uint64_t backoff_retries = 0;    // retries that waited a backoff delay
  Nanos backoff_wait_ns = 0;       // total time spent backing off
  // EC cold tier (DESIGN.md §13).
  uint64_t ec_shard_reads = 0;     // shard reads issued against EC chunks
  uint64_t ec_degraded_reads = 0;  // pieces served by client-side reconstruct
  uint64_t write_promotes = 0;     // writes that promoted an EC chunk first
  uint64_t spec_writes = 0;        // writes acked against speculative replicas
  uint64_t spec_reads = 0;         // read pieces served by speculative replicas
  Histogram read_latency_us;
  Histogram write_latency_us;
};

class VirtualDisk {
 public:
  VirtualDisk(cluster::Cluster* cluster, cluster::Machine* host, cluster::ClientId client_id,
              const VirtualDiskClientOptions& options = {});

  // Opens the disk: acquires the lease, fetches the layout, confirms per-
  // chunk versions with the replicas (initialization protocol, §4.2.1).
  Status Open(cluster::DiskId disk);
  Status Close();

  uint64_t size() const { return meta_.size; }
  bool is_open() const { return open_; }

  // Async block I/O. Offsets/lengths must be 512-byte aligned. The BufferView
  // write shares the payload zero-copy down the whole stack (sub-requests
  // slice it; replication legs ref it); a null view is a timing-only write.
  // The raw-pointer overload keeps the legacy contract: the buffer (when
  // non-null) must outlive the callback.
  void Read(uint64_t offset, uint64_t length, void* out, storage::IoCallback done);
  void Write(uint64_t offset, uint64_t length, ursa::BufferView data, storage::IoCallback done);
  void Write(uint64_t offset, uint64_t length, const void* data, storage::IoCallback done) {
    Write(offset, length, ursa::BufferView::Unowned(data, length), std::move(done));
  }

  ClientStats& stats() { return stats_; }
  const ClientStats& stats() const { return stats_; }

  // Client event-loop busy time (client-side CPU for Fig. 7).
  Nanos loop_busy_time() const { return loop_->busy_time(); }
  void ResetLoopStats() { loop_->ResetStats(); }

  // Re-reads the layout from the master (after a view change).
  void RefreshLayout();

  cluster::ClientId client_id() const { return client_id_; }

  // Test/debug introspection: the client's cached version and current
  // primary index for chunk `index` of the open disk.
  uint64_t chunk_version(size_t index) const { return chunk_states_[index].version; }
  size_t chunk_primary(size_t index) const { return chunk_states_[index].primary; }

  // ---- Online client upgrade (§5.2, core/shell split) ----
  // Stops accepting new I/O from the VMM, completes pending requests, saves
  // state, swaps in the new core, and resumes buffered I/O. The VMM's
  // connection (here: the caller's view of the object) never drops.
  void Upgrade(const std::string& version, Nanos swap_window, std::function<void()> done);
  const std::string& software_version() const { return software_version_; }
  bool upgrading() const { return upgrading_; }

  // ---- Master-imposed rate limit (§3.2) ----
  // Caps the client's WRITE rate; 0 = unlimited. The master applies this to
  // clients aggressive enough to threaten journal quotas.
  void SetWriteRateLimit(double ops_per_sec) { write_limiter_.SetRate(ops_per_sec); }
  double write_rate_limit() const { return write_limiter_.rate(); }

 private:
  struct SubRequest {
    size_t chunk_index = 0;
    uint64_t chunk_offset = 0;
    uint64_t length = 0;
    uint64_t user_offset = 0;  // offset within the user buffer
    // Unique id of this logical write (0 for reads), stable across retries:
    // lets replicas tell a retry of an applied write from a different write
    // reusing the version of one that failed client-side.
    uint64_t write_id = 0;
  };

  // One user request, joined across its sub-requests. The user callback
  // moves in here once; the continuations of the sub-requests share the
  // join instead of each holding a copy of the callback.
  struct UserIo {
    Nanos start = 0;
    obs::SpanRef span;
    bool is_write = false;
    void* out = nullptr;      // reads: the user buffer (may be null)
    ursa::BufferView data;    // writes: the payload (may be null)
    size_t remaining = 0;     // sub-requests not yet finished
    Status first_error;
    storage::IoCallback done;
  };

  // One attempt of a replica RPC: a read, or a client-directed or
  // primary-driven write. Its hops share it instead of each copying the
  // callback, and the RPC guard keeps it alive while any hop is in flight:
  // the callback's captures may own the raw buffer the request points at,
  // so they must outlive a late or duplicated message, not only the reply.
  struct Attempt {
    SubRequest sub;
    int number = 1;
    void* out = nullptr;     // reads: where the bytes land
    ursa::BufferView data;   // writes: the payload
    uint64_t version = 0;    // writes: the chunk version written on
    obs::SpanRef span;
    storage::IoCallback done;
    uint64_t replied_version = 0;  // highest version a replica reported
    bool saw_mismatch = false;     // a client-directed leg said kVersionMismatch
    Status status{};               // the guard's verdict
    Nanos replied = 0;             // when the guard fired
  };

  // A sub-write waiting its turn in its chunk's version order.
  struct PendingWrite {
    SubRequest sub;
    std::shared_ptr<UserIo> io;
  };

  struct ChunkState {
    uint64_t version = 0;
    size_t primary = 0;  // index into layout replicas
    std::deque<PendingWrite> write_queue;
    bool write_inflight = false;
    int timeout_streak = 0;  // consecutive timeouts on the current primary
    // While the chunk speculates (DESIGN.md §13.6): ranges known durable on
    // the spec replicas (this client's acked writes merged with the master's
    // spec_extents). Reads of these bytes route at the spec replicas; the
    // rest still reads the shards. Cleared when speculation commits.
    std::vector<Interval> spec_extents;
  };

  // Maps a logical byte range to per-chunk sub-requests (striping).
  std::vector<SubRequest> SplitRequest(uint64_t offset, uint64_t length) const;

  // Joins a finished sub-request into its user request; the last one pays
  // the VMM return-path cost and completes the request.
  void FinishSub(const std::shared_ptr<UserIo>& io, const Status& s);

  // The span (null when the request is unsampled) rides along every attempt;
  // retries max-merge into the same span, inflating kClientIssue — acceptable
  // for a failure-path sample, and the common case has one attempt.
  void IssueRead(const SubRequest& sub, void* out, int attempt, storage::IoCallback done,
                 const obs::SpanRef& span);
  void IssueWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                  storage::IoCallback done, const obs::SpanRef& span);
  void IssueWriteAttempt(const SubRequest& sub, ursa::BufferView data, int attempt,
                         storage::IoCallback done, const obs::SpanRef& span);
  void ClientDirectedWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                           storage::IoCallback done, const obs::SpanRef& span);
  void PrimaryDrivenWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                          storage::IoCallback done, const obs::SpanRef& span);

  // ---- EC cold-tier paths (DESIGN.md §13) ----
  // Routes a sub-request at an EC-tier chunk to the shard(s) owning the
  // range; each shard piece falls back to a client-side degraded read when
  // its shard server fails (reconstruct from k surviving shards).
  void IssueEcRead(const SubRequest& sub, void* out, int attempt, storage::IoCallback done,
                   const obs::SpanRef& span);
  void ReadShardPiece(size_t chunk_index, int shard_index, uint64_t shard_off, uint64_t len,
                      void* out, storage::IoCallback done, const obs::SpanRef& span);
  // Reads [offset, offset+len) of a speculating chunk from its spec
  // replicas (version-guarded: a replica that missed an acked write fails
  // the version check and the read fails over to the next one).
  void ReadSpecPiece(size_t chunk_index, uint64_t offset, uint64_t len, void* out,
                     size_t replica_idx, storage::IoCallback done, const obs::SpanRef& span);
  void DegradedShardRead(size_t chunk_index, int shard_index, uint64_t shard_off, uint64_t len,
                         void* out, storage::IoCallback done, const obs::SpanRef& span);
  // A write landed on an EC-tier chunk: promote it back to replicated form
  // through the master BEFORE the ack, then retry on the fresh layout.
  void PromoteForWrite(const SubRequest& sub, ursa::BufferView data, int attempt,
                       storage::IoCallback done, const obs::SpanRef& span);
  ec::ReedSolomon* Codec(int k, int m);

  // Failure path: classify the error (timeout / explicit / integrity), apply
  // primary-switch hysteresis, report to the master when warranted, then
  // retry via `retry` after a bounded-backoff delay.
  void HandleAttemptFailure(const SubRequest& sub, const Status& status, int attempt,
                            storage::IoCallback done, std::function<void()> retry);

  // Backoff delay before retry attempt `attempt`+1 (0 = immediate).
  Nanos BackoffDelay(int attempt);
  // Runs `retry` after BackoffDelay(attempt), tracking backoff stats.
  void ScheduleRetry(int attempt, std::function<void()> retry);

  void PumpWriteQueue(size_t chunk_index);

  const cluster::ChunkLayout& Layout(size_t chunk_index) const {
    return meta_.chunks[chunk_index];
  }
  // The replica set writes go to: the speculative targets while the chunk
  // is mid-promotion, the committed replicas otherwise.
  static const std::vector<cluster::ReplicaRef>& WriteSet(const cluster::ChunkLayout& layout) {
    return layout.speculating() ? layout.spec_replicas : layout.replicas;
  }
  cluster::ChunkServer* Server(cluster::ServerId id) { return cluster_->server(id); }

  sim::Simulator* sim_;
  cluster::Cluster* cluster_;
  cluster::Machine* host_;
  cluster::ClientId client_id_;
  VirtualDiskClientOptions options_;
  std::unique_ptr<sim::Resource> loop_;  // single-threaded client process

  bool open_ = false;
  cluster::DiskMeta meta_;  // client's copy of the layout
  std::vector<ChunkState> chunk_states_;
  ClientStats stats_;

  // Upgrade machinery (§5.2).
  bool upgrading_ = false;
  std::string software_version_ = "v1";
  uint64_t inflight_user_ops_ = 0;
  std::vector<std::function<void()>> paused_ops_;

  // Master-imposed write throttle (§3.2).
  RateLimiter write_limiter_;

  // Deterministic per-client jitter stream for retry backoff.
  Rng retry_rng_;

  // Logical-write id generator (see SubRequest::write_id). Client ids are
  // folded in so two clients never mint the same id.
  uint64_t next_write_id_ = 0;

  // Reed-Solomon codecs for client-side degraded reads, keyed by (k, m).
  std::map<std::pair<int, int>, std::unique_ptr<ec::ReedSolomon>> codecs_;
};

}  // namespace ursa::client

#endif  // URSA_CLIENT_VIRTUAL_DISK_H_
