#include "src/cluster/master.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/loop.h"
#include "src/net/message.h"
#include "src/tier/heat_tracker.h"

namespace ursa::cluster {

namespace {
// Preference order within a replica set: healthy SSD, healthy HDD, demoted
// SSD, demoted HDD. Lower rank = preferred (primary selection, recovery
// sources, layout ordering).
int ReplicaRank(const ReplicaRef& r) {
  return (r.demoted ? 2 : 0) + (r.on_ssd ? 0 : 1);
}
}  // namespace

Master::Master(sim::Simulator* sim, net::Transport* transport, Placement placement,
               std::vector<ChunkServer*> servers)
    : sim_(sim),
      transport_(transport),
      placement_(std::move(placement)),
      servers_(std::move(servers)) {}

bool Master::PreferReplica(const ReplicaRef& a, const ReplicaRef& b) const {
  int rank_a = ReplicaRank(a);
  int rank_b = ReplicaRank(b);
  if (rank_a != rank_b) {
    return rank_a < rank_b;
  }
  // Continuous health tiebreak: at equal rank, steer toward the replica whose
  // device scores lower — but only once a side clears the deadband, so the
  // µs-level score jitter between two genuinely healthy devices never churns
  // layouts (each churn costs a view change).
  if (health_score_) {
    double score_a = health_score_(a.server);
    double score_b = health_score_(b.server);
    if (score_a != score_b && std::max(score_a, score_b) >= health_score_deadband_) {
      return score_a < score_b;
    }
  }
  return false;  // equivalent: stable sorts keep the existing order
}

void Master::SortLayout(ChunkLayout* layout) {
  std::stable_sort(
      layout->replicas.begin(), layout->replicas.end(),
      [this](const ReplicaRef& a, const ReplicaRef& b) { return PreferReplica(a, b); });
}

void Master::OnHealthScoresChanged() {
  if (!health_score_) {
    return;
  }
  for (auto& [disk_id, meta] : disks_) {
    for (ChunkLayout& layout : meta.chunks) {
      std::vector<ServerId> before;
      before.reserve(layout.replicas.size());
      for (const ReplicaRef& r : layout.replicas) {
        before.push_back(r.server);
      }
      SortLayout(&layout);
      bool changed = false;
      for (size_t i = 0; i < before.size(); ++i) {
        if (layout.replicas[i].server != before[i]) {
          changed = true;
          break;
        }
      }
      if (!changed) {
        continue;
      }
      // Same client-resteer protocol as demotion: bump the view, install it
      // on alive replicas, and let the stale-view VersionMismatch redirect
      // lease holders to the new preferred order.
      ++layout.view;
      ++recovery_stats_.view_changes;
      for (const ReplicaRef& r : layout.replicas) {
        if (!servers_[r.server]->crashed()) {
          servers_[r.server]->SetView(layout.chunk, layout.view);
        }
      }
    }
  }
}

std::vector<Master::ChunkPlacement> Master::ListChunks() const {
  std::vector<ChunkPlacement> out;
  out.reserve(chunk_refs_.size());
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      if (layout.tier == ChunkTier::kEc) {
        // EC'd chunks expose their shards to the scrubber: each shard is a
        // single-replica chunk whose checksum ledger covers the shard extent.
        for (const EcShardRef& sh : layout.ec_shards) {
          ChunkPlacement p;
          p.chunk = sh.shard_chunk;
          p.size = layout.ec_shard_size;
          p.servers.push_back(sh.server);
          out.push_back(std::move(p));
        }
        continue;
      }
      ChunkPlacement p;
      p.chunk = layout.chunk;
      p.size = meta.chunk_size;
      p.servers.reserve(layout.replicas.size());
      for (const ReplicaRef& r : layout.replicas) {
        p.servers.push_back(r.server);
      }
      out.push_back(std::move(p));
    }
  }
  return out;
}

void Master::SetServerDemoted(ServerId server, bool demoted) {
  URSA_CHECK_LT(server, servers_.size());
  if (demoted == IsDemoted(server)) {
    return;
  }
  if (demoted) {
    demoted_.insert(server);
    ++recovery_stats_.demotions;
  } else {
    demoted_.erase(server);
    ++recovery_stats_.undemotions;
  }
  for (auto& [disk_id, meta] : disks_) {
    for (ChunkLayout& layout : meta.chunks) {
      bool touched = false;
      for (ReplicaRef& r : layout.replicas) {
        if (r.server == server && r.demoted != demoted) {
          r.demoted = demoted;
          touched = true;
        }
      }
      if (!touched) {
        continue;
      }
      SortLayout(&layout);
      // Bump the view and install it on the alive replicas: clients holding
      // the old layout get VersionMismatch("stale view") on their next op,
      // refresh, and re-steer. Crashed replicas miss the install and resync
      // through the normal stale-replica repair path when restored.
      ++layout.view;
      ++recovery_stats_.view_changes;
      for (const ReplicaRef& r : layout.replicas) {
        if (!servers_[r.server]->crashed()) {
          servers_[r.server]->SetView(layout.chunk, layout.view);
        }
      }
    }
  }
}

void Master::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterCallbackCounter("master.chunks_recovered", {}, [this]() {
    return static_cast<double>(recovery_stats_.chunks_recovered);
  });
  registry->RegisterCallbackCounter("master.recovery_bytes_transferred", {}, [this]() {
    return static_cast<double>(recovery_stats_.bytes_transferred);
  });
  registry->RegisterCallbackCounter("master.incremental_repairs", {}, [this]() {
    return static_cast<double>(recovery_stats_.incremental_repairs);
  });
  registry->RegisterCallbackCounter("master.full_copies", {}, [this]() {
    return static_cast<double>(recovery_stats_.full_copies);
  });
  registry->RegisterCallbackCounter("master.view_changes", {}, [this]() {
    return static_cast<double>(recovery_stats_.view_changes);
  });
  registry->RegisterCallbackCounter("master.corruption_repairs", {}, [this]() {
    return static_cast<double>(recovery_stats_.corruption_repairs);
  });
  registry->RegisterCallbackCounter("master.demotions", {}, [this]() {
    return static_cast<double>(recovery_stats_.demotions);
  });
  registry->RegisterCallbackGauge(
      "master.demoted_servers", {}, [this]() { return static_cast<double>(demoted_.size()); });
  registry->RegisterCallbackGauge(
      "master.disks", {}, [this]() { return static_cast<double>(disks_.size()); });
  registry->RegisterCallbackGauge(
      "master.chunks", {}, [this]() { return static_cast<double>(chunk_refs_.size()); });
  registry->RegisterCallbackCounter("tier.master_demotions", {}, [this]() {
    return static_cast<double>(tier_stats_.demotions);
  });
  registry->RegisterCallbackCounter("tier.master_demote_aborts", {}, [this]() {
    return static_cast<double>(tier_stats_.demote_aborts);
  });
  registry->RegisterCallbackCounter("tier.master_promotions", {}, [this]() {
    return static_cast<double>(tier_stats_.promotions);
  });
  registry->RegisterCallbackCounter("tier.write_promotions", {}, [this]() {
    return static_cast<double>(tier_stats_.write_promotions);
  });
  registry->RegisterCallbackCounter("tier.shard_repairs", {}, [this]() {
    return static_cast<double>(tier_stats_.shard_repairs);
  });
  registry->RegisterCallbackCounter("tier.shard_range_repairs", {}, [this]() {
    return static_cast<double>(tier_stats_.shard_range_repairs);
  });
  registry->RegisterCallbackCounter("tier.ec_bytes_encoded", {}, [this]() {
    return static_cast<double>(tier_stats_.ec_bytes_encoded);
  });
  registry->RegisterCallbackGauge("tier.ec_chunks", {}, [this]() {
    size_t n = 0;
    for (const auto& [id, meta] : disks_) {
      for (const ChunkLayout& l : meta.chunks) {
        n += l.tier == ChunkTier::kEc ? 1 : 0;
      }
    }
    return static_cast<double>(n);
  });
  registry->RegisterCallbackGauge(
      "tier.physical_bytes", {}, [this]() { return static_cast<double>(PhysicalBytes()); });
  registry->RegisterCallbackGauge(
      "tier.logical_bytes", {}, [this]() { return static_cast<double>(LogicalBytes()); });
}

Result<DiskId> Master::CreateDisk(const std::string& name, uint64_t size, int replication,
                                  int stripe_group) {
  if (size == 0 || replication < 1 || stripe_group < 1) {
    return InvalidArgument("bad disk parameters");
  }
  DiskMeta meta;
  meta.id = next_disk_id_++;
  meta.name = name;
  meta.size = size;
  meta.replication = replication;
  meta.stripe_group = stripe_group;
  meta.chunk_size = chunk_size_;

  uint64_t num_chunks = (size + meta.chunk_size - 1) / meta.chunk_size;
  // Striping (§3.4) addresses whole groups; round the chunk count up so the
  // last group is complete (the extra capacity is simply allocated).
  uint64_t group = static_cast<uint64_t>(stripe_group);
  num_chunks = (num_chunks + group - 1) / group * group;
  meta.chunks.reserve(num_chunks);
  for (uint64_t seq = 0; seq < num_chunks; ++seq) {
    Result<std::vector<ServerId>> servers =
        placement_.PlaceChunk(seq, replication, meta.id * 7919);
    if (!servers.ok()) {
      return servers.status();
    }
    ChunkLayout layout;
    layout.chunk = next_chunk_id_++;
    layout.view = 1;
    for (ServerId sid : *servers) {
      ChunkServer* server = servers_[sid];
      // The disk id doubles as the QoS tenant for every replica's I/O.
      Status s = server->AllocateChunk(layout.chunk, layout.view, meta.id);
      if (!s.ok()) {
        return s;
      }
      layout.replicas.push_back(ReplicaRef{sid, server->node(), server->on_ssd()});
    }
    chunk_refs_[layout.chunk] = ChunkRef{meta.id, seq};
    NotifyTierChanged(layout.chunk, false);
    meta.chunks.push_back(std::move(layout));
  }
  DiskId id = meta.id;
  disks_[id] = std::move(meta);
  return id;
}

Result<const DiskMeta*> Master::OpenDisk(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  DiskMeta& meta = it->second;
  Nanos now = sim_->Now();
  if (meta.lease_holder != 0 && meta.lease_holder != client && meta.lease_expiry > now) {
    return Unavailable("disk leased by another client");
  }
  meta.lease_holder = client;
  meta.lease_expiry = now + lease_term_;
  return &meta;
}

Status Master::RenewLease(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  DiskMeta& meta = it->second;
  if (meta.lease_holder != client) {
    return Unavailable("lease held by another client");
  }
  meta.lease_expiry = sim_->Now() + lease_term_;
  return OkStatus();
}

Status Master::CloseDisk(DiskId disk, ClientId client) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  if (it->second.lease_holder == client) {
    it->second.lease_holder = 0;
    it->second.lease_expiry = 0;
  }
  return OkStatus();
}

Result<const DiskMeta*> Master::GetDisk(DiskId disk) const {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    return NotFound("no such disk");
  }
  return &it->second;
}

Master::Checkpoint Master::TakeCheckpoint() const {
  Checkpoint cp;
  cp.disks = disks_;
  cp.next_disk_id = next_disk_id_;
  cp.next_chunk_id = next_chunk_id_;
  return cp;
}

void Master::Restore(const Checkpoint& checkpoint) {
  disks_ = checkpoint.disks;
  next_disk_id_ = checkpoint.next_disk_id;
  next_chunk_id_ = checkpoint.next_chunk_id;
  // Every in-flight back-fill pass died with the old process: cancel them so
  // late callbacks fall silent, then rebuild speculation state from the
  // restored layouts below (spec_replicas/spec_extents are checkpointed
  // metadata, so an acked speculative write survives the master crash).
  std::vector<ChunkId> old_spec;
  for (auto& [id, st] : spec_) {
    old_spec.push_back(id);
    CancelSpecPass(st.get());
  }
  spec_.clear();
  // Rebuild the chunk index; leases are deliberately NOT restored — clients
  // re-acquire them after a master restart (their timing constraints make
  // interleaving impossible, §4.1).
  chunk_refs_.clear();
  ec_shards_.clear();
  for (auto& [disk_id, meta] : disks_) {
    meta.lease_holder = 0;
    meta.lease_expiry = 0;
    for (size_t i = 0; i < meta.chunks.size(); ++i) {
      chunk_refs_[meta.chunks[i].chunk] = ChunkRef{disk_id, i};
      const ChunkLayout& layout = meta.chunks[i];
      if (layout.tier == ChunkTier::kEc) {
        for (size_t s = 0; s < layout.ec_shards.size(); ++s) {
          ec_shards_[layout.ec_shards[s].shard_chunk] =
              EcShardInfo{layout.chunk, static_cast<int>(s)};
        }
      }
    }
  }
  // Chunks that were speculating before the restore but not in the
  // checkpoint would otherwise hold their migration mark forever.
  for (ChunkId id : old_spec) {
    ChunkLayout* layout = FindLayout(id);
    if (layout == nullptr || !layout->speculating()) {
      FinishMigration(id);
    }
  }
  // Restart the back-fill for every speculating chunk in the checkpoint and
  // re-key the tier migrator's candidate queues (tiers may have moved
  // relative to what it last observed).
  for (auto& [disk_id, meta] : disks_) {
    (void)disk_id;
    for (ChunkLayout& layout : meta.chunks) {
      if (layout.speculating()) {
        migrating_.insert(layout.chunk);
        spec_[layout.chunk] = std::make_unique<SpecState>();
        ++tier_stats_.spec_resumes;
        ChunkId chunk = layout.chunk;
        sim_->After(0, [this, chunk]() { StartSpecBackfill(chunk); });
      }
      NotifyTierChanged(layout.chunk, layout.tier == ChunkTier::kEc);
    }
  }
}

ChunkLayout* Master::FindLayout(ChunkId chunk) {
  auto ref = chunk_refs_.find(chunk);
  if (ref == chunk_refs_.end()) {
    return nullptr;
  }
  return &disks_[ref->second.disk].chunks[ref->second.index];
}

void Master::TransferChunk(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                           uint64_t chunk_size, std::function<void(Status, uint64_t)> done,
                           qos::ServiceClass cls) {
  if (admission_ != nullptr) {
    // Cluster-wide per-source pacing: the piece pump starts only once this
    // source device has a free transfer slot, and holds it until `done`.
    auto priority = cls == qos::ServiceClass::kScrub
                        ? scrub::RecoveryAdmission::Priority::kScrub
                        : scrub::RecoveryAdmission::Priority::kRecovery;
    uint64_t source_id = source->id();
    auto released = [this, source_id, done = std::move(done)](Status s, uint64_t version) {
      admission_->Release(source_id);
      done(s, version);
    };
    admission_->Acquire(source_id, priority,
                        [this, chunk, source, target, chunk_size, cls,
                         released = std::move(released)]() mutable {
                          TransferChunkNow(chunk, source, target, chunk_size,
                                           std::move(released), cls);
                        });
    return;
  }
  TransferChunkNow(chunk, source, target, chunk_size, std::move(done), cls);
}

void Master::TransferRanges(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                            std::vector<Interval> ranges, std::function<void(Status)> done,
                            qos::ServiceClass cls) {
  if (admission_ != nullptr && !ranges.empty()) {
    auto priority = cls == qos::ServiceClass::kScrub
                        ? scrub::RecoveryAdmission::Priority::kScrub
                        : scrub::RecoveryAdmission::Priority::kRecovery;
    uint64_t source_id = source->id();
    auto released = [this, source_id, done = std::move(done)](Status s) {
      admission_->Release(source_id);
      done(s);
    };
    admission_->Acquire(source_id, priority,
                        [this, chunk, source, target, cls, ranges = std::move(ranges),
                         released = std::move(released)]() mutable {
                          TransferRangesNow(chunk, source, target, std::move(ranges),
                                            std::move(released), cls);
                        });
    return;
  }
  TransferRangesNow(chunk, source, target, std::move(ranges), std::move(done), cls);
}

void Master::TransferChunkNow(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                              uint64_t chunk_size, std::function<void(Status, uint64_t)> done,
                              qos::ServiceClass cls) {
  // Each piece: read at the source (journal-aware), ship over the network,
  // write at the target. Saturates the target's inbound NIC when sources are
  // fast enough — the Fig. 12 bound. `failed` stops pieces still reading
  // from shipping once any piece has failed the copy.
  auto failed = std::make_shared<bool>(false);
  PumpPieces(
      chunk_size, target, cls, /*count_bytes=*/true,
      [this, chunk, source, target, cls, failed](uint64_t offset, uint64_t len,
                                                 PieceLanded landed) {
        std::shared_ptr<std::vector<uint8_t>> buf;
        if (recovery_carries_data_) {
          buf = std::make_shared<std::vector<uint8_t>>(len);
        }
        void* buf_ptr = buf ? buf->data() : nullptr;
        source->HandleRecoveryRead(
            chunk, offset, len, buf_ptr,
            [this, chunk, source, target, offset, len, cls, failed, buf,
             landed = std::move(landed)](const Status& s, uint64_t version) {
              if (*failed) {
                return;
              }
              if (!s.ok()) {
                *failed = true;
                landed(s, 0);
                return;
              }
              uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, len);
              transport_->Send(source->node(), target->node(), wire,
                               [chunk, target, offset, len, cls, failed, buf, landed, version]() {
                                 target->HandleRecoveryWrite(
                                     chunk, offset, len, buf ? buf->data() : nullptr,
                                     [failed, buf, landed, version](const Status& s2) {
                                       *failed = *failed || !s2.ok();
                                       landed(s2, version);
                                     },
                                     cls);
                               });
            },
            cls);
      },
      std::move(done));
}

void Master::TransferRangesNow(ChunkId chunk, ChunkServer* source, ChunkServer* target,
                               std::vector<Interval> ranges, std::function<void(Status)> done,
                               qos::ServiceClass cls) {
  if (ranges.empty()) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  auto remaining = std::make_shared<size_t>(ranges.size());
  auto failed = std::make_shared<bool>(false);
  auto done_shared = std::make_shared<std::function<void(Status)>>(std::move(done));
  for (const Interval& range : ranges) {
    std::shared_ptr<std::vector<uint8_t>> buf;
    if (recovery_carries_data_) {
      buf = std::make_shared<std::vector<uint8_t>>(range.length);
    }
    void* buf_ptr = buf ? buf->data() : nullptr;
    source->HandleRecoveryRead(
        chunk, range.offset, range.length, buf_ptr,
        [this, chunk, source, target, range, cls, remaining, failed, done_shared,
         buf](const Status& s, uint64_t) {
          if (*failed) {
            return;
          }
          if (!s.ok()) {
            *failed = true;
            (*done_shared)(s);
            return;
          }
          uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, range.length);
          transport_->Send(
              source->node(), target->node(), wire,
              [this, chunk, target, range, cls, remaining, failed, done_shared, buf]() {
                target->HandleRecoveryWrite(
                    chunk, range.offset, range.length, buf ? buf->data() : nullptr,
                    [this, range, remaining, failed, done_shared, buf](const Status& s2) {
                      if (*failed) {
                        return;
                      }
                      if (!s2.ok()) {
                        *failed = true;
                        (*done_shared)(s2);
                        return;
                      }
                      recovery_stats_.bytes_transferred += range.length;
                      if (--*remaining == 0) {
                        (*done_shared)(OkStatus());
                      }
                    },
                    cls);
              });
        },
        cls);
  }
}

void Master::ReportReplicaFailure(ChunkId chunk, ServerId failed,
                                  std::function<void(Status)> done) {
  // EC shard ids route to stripe repair, never to replica recovery: a shard
  // has no replicas — its redundancy is the stripe's parity.
  auto shard_it = ec_shards_.find(chunk);
  if (shard_it != ec_shards_.end()) {
    ChunkLayout* parent_layout = FindLayout(shard_it->second.parent);
    if (parent_layout == nullptr || parent_layout->tier != ChunkTier::kEc) {
      done(NotFound("stale shard"));
      return;
    }
    const EcShardRef& sh = parent_layout->ec_shards[shard_it->second.index];
    if (failed < servers_.size() && !servers_[failed]->crashed() && sh.server == failed) {
      done(OkStatus());  // transient slowness; the shard's server is alive
      return;
    }
    RepairEcShard(shard_it->second.parent, shard_it->second.index, std::move(done));
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    done(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    // Stale report against an already-demoted chunk: nothing to repair here
    // (the client's refresh will discover the EC layout).
    done(OkStatus());
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];

  // Verify the suspicion before acting (§4.2.2: Ursa deliberately avoids
  // declaring replicas dead on a timeout alone). A client timeout can stem
  // from transient slowness or from a DIFFERENT stale replica failing the
  // quorum; replacing a healthy replica would discard its (possibly
  // freshest) data. If the suspect responds, repair lagging replicas
  // instead of changing the view.
  if (failed < servers_.size() && !servers_[failed]->crashed()) {
    auto remaining = std::make_shared<size_t>(layout->replicas.size());
    auto done_shared = std::make_shared<std::function<void(Status)>>(std::move(done));
    for (const ReplicaRef& r : layout->replicas) {
      RepairReplica(chunk, r.server, [remaining, done_shared](Status) {
        if (--*remaining == 0) {
          (*done_shared)(OkStatus());
        }
      });
    }
    return;
  }

  // Collect survivors and their versions (the master "tries to collect
  // version numbers from a majority of replicas", §4.2.2).
  std::vector<ReplicaRef> survivors;
  bool failed_was_primary_capable = false;
  for (const ReplicaRef& r : layout->replicas) {
    if (r.server == failed) {
      failed_was_primary_capable = r.on_ssd;
      continue;
    }
    if (!servers_[r.server]->crashed()) {
      survivors.push_back(r);
    }
  }
  if (survivors.empty()) {
    done(Unavailable("no surviving replica: data loss"));
    return;
  }

  uint64_t version_h = 0;
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  for (const ReplicaRef& r : survivors) {
    Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    // Version first (a stale source would hide committed writes); at equal
    // versions prefer healthy over demoted, SSD over HDD, and lower health
    // score (a gray-slow source would drag the whole transfer).
    if (source == nullptr || st->version > version_h ||
        (st->version == version_h && PreferReplica(r, *source_ref))) {
      version_h = st->version;
      source = servers_[r.server];
      source_ref = &r;
    }
  }
  if (source == nullptr) {
    done(Unavailable("no readable survivor"));
    return;
  }

  // Allocate the replacement on a machine hosting no survivor.
  std::vector<MachineId> exclude;
  for (const ReplicaRef& r : survivors) {
    exclude.push_back(placement_.MachineOf(r.server));
  }
  ChunkServer* target = nullptr;
  // Two sweeps: prefer a healthy replacement, but accept a demoted one over
  // leaving the chunk under-replicated.
  for (int allow_demoted = 0; allow_demoted < 2 && target == nullptr; ++allow_demoted) {
    for (uint64_t salt = chunk; salt < chunk + num_servers(); ++salt) {
      Result<ServerId> candidate =
          placement_.PlaceReplacement(failed_was_primary_capable, exclude, salt);
      if (!candidate.ok()) {
        continue;
      }
      ChunkServer* server = servers_[*candidate];
      // Never reuse the failed server or any server already hosting the chunk
      // (possible on small clusters where every machine holds a survivor).
      if (*candidate != failed && !server->crashed() && !server->HasChunk(chunk) &&
          (allow_demoted == 1 || !IsDemoted(*candidate))) {
        target = server;
        break;
      }
    }
  }
  if (target == nullptr) {
    done(ResourceExhausted("no replacement server available"));
    return;
  }
  uint64_t new_view = layout->view + 1;
  Status alloc = target->AllocateChunk(chunk, new_view, ref->second.disk);
  if (!alloc.ok()) {
    done(alloc);
    return;
  }

  uint64_t chunk_size = disk.chunk_size;
  ChunkServer* source_ptr = source;
  TransferChunk(
      chunk, source, target, chunk_size,
      [this, chunk, layout, failed, source_ptr, target, new_view, version_h, chunk_size,
       done = std::move(done)](const Status& s, uint64_t) {
        if (!s.ok()) {
          done(s);
          return;
        }
        // Before installing the new view, bring every LAGGING survivor up to
        // versionH with real data (incremental repair from the source's
        // journal lite, or a full copy when history is gone) — a bare
        // version fast-forward would hide lost writes.
        auto laggards = std::make_shared<std::vector<ChunkServer*>>();
        for (const ReplicaRef& r : layout->replicas) {
          if (r.server == failed || servers_[r.server]->crashed()) {
            continue;
          }
          Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
          if (st.ok() && st->version < version_h) {
            laggards->push_back(servers_[r.server]);
          }
        }
        auto finish = [this, chunk, layout, failed, target, new_view, version_h,
                       done = std::move(done)]() {
          // Install the new view. Writes kept committing during the
          // transfer, so survivors may have advanced past versionH — never
          // move a replica's version backward, only adopt the new view.
          target->SetState(chunk, version_h, new_view);
          for (ReplicaRef& r : layout->replicas) {
            if (r.server == failed) {
              r = ReplicaRef{target->id(), target->node(), target->on_ssd(),
                             IsDemoted(target->id())};
            } else {
              Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
              if (st.ok()) {
                servers_[r.server]->SetState(chunk, std::max(st->version, version_h),
                                             new_view);
              }
            }
          }
          layout->view = new_view;
          // Keep the preferred primary first (a healthy SSD replica if any,
          // health-score tiebroken).
          SortLayout(layout);
          ++recovery_stats_.chunks_recovered;
          ++recovery_stats_.view_changes;
          done(OkStatus());
        };
        if (laggards->empty()) {
          finish();
          return;
        }
        auto remaining = std::make_shared<size_t>(laggards->size());
        auto finish_shared = std::make_shared<std::function<void()>>(std::move(finish));
        for (ChunkServer* laggard : *laggards) {
          Result<ChunkServer::ReplicaState> st = laggard->GetState(chunk);
          uint64_t from_version = st.ok() ? st->version : 0;
          std::vector<Interval> ranges;
          auto on_done = [remaining, finish_shared](Status) {
            if (--*remaining == 0) {
              (*finish_shared)();
            }
          };
          if (source_ptr->ModifiedSince(chunk, from_version, &ranges)) {
            ++recovery_stats_.incremental_repairs;
            TransferRanges(chunk, source_ptr, laggard, std::move(ranges), on_done);
          } else {
            ++recovery_stats_.full_copies;
            TransferChunk(chunk, source_ptr, laggard, chunk_size,
                          [on_done](Status s2, uint64_t) { on_done(s2); });
          }
        }
      });
}

void Master::RepairChunkReplicas(ChunkId chunk) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    if (layout->speculating()) {
      // Mid-speculation the back-fill pass owns the stripe; its retry loop
      // (and the post-commit stale-replica repair) covers every failure.
      return;
    }
    // Stripe healing: rebuild any shard stranded on a crashed server.
    for (size_t i = 0; i < layout->ec_shards.size(); ++i) {
      if (servers_[layout->ec_shards[i].server]->crashed()) {
        RepairEcShard(chunk, static_cast<int>(i), [](Status) {});
      }
    }
    return;
  }
  for (const ReplicaRef& r : layout->replicas) {
    if (!servers_[r.server]->crashed()) {
      RepairReplica(chunk, r.server, [](Status) {});
    }
  }
}

void Master::RepairCorruptRange(ChunkId chunk, ServerId corrupt_server, uint64_t offset,
                                uint64_t length, std::function<void(Status)> done) {
  if (IsEcShard(chunk)) {
    // A corrupt shard range has no peer replica to copy from: reconstruct
    // the bytes from the stripe's other shards instead.
    ++recovery_stats_.corruption_repairs;
    RepairEcShardRange(chunk, offset, length, std::move(done));
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  // Freshest alive replica OTHER than the damaged one. Version order does not
  // gate this repair: the corrupt replica may well hold the highest version —
  // the flipped bits destroyed its data, not its metadata.
  ChunkServer* source = nullptr;
  uint64_t best_version = 0;
  const ReplicaRef* best_ref = nullptr;
  for (const ReplicaRef& r : layout->replicas) {
    if (r.server == corrupt_server || servers_[r.server]->crashed()) {
      continue;
    }
    Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (source == nullptr || st->version > best_version ||
        (st->version == best_version && PreferReplica(r, *best_ref))) {
      best_version = st->version;
      source = servers_[r.server];
      best_ref = &r;
    }
  }
  if (source == nullptr) {
    // No healthy replica to heal from: leave the range quarantined (reads
    // keep failing with kCorruption rather than serving stale bytes).
    sim_->After(0, [done = std::move(done)]() {
      done(Unavailable("no healthy replica for corruption repair"));
    });
    return;
  }
  ++recovery_stats_.corruption_repairs;
  ChunkServer* target = servers_[corrupt_server];
  // Scrub repair: lowest-priority class — it races nothing (reads of the
  // range stay quarantined until `done`).
  TransferRanges(chunk, source, target, {Interval{offset, length}}, std::move(done),
                 qos::ServiceClass::kScrub);
}

void Master::RepairReplica(ChunkId chunk, ServerId lagging, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    done(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier == ChunkTier::kEc) {
    done(OkStatus());  // no replicas to repair; shards heal via RepairEcShard
    return;
  }
  ChunkServer* laggard = servers_[lagging];
  Result<ChunkServer::ReplicaState> lag_state = laggard->GetState(chunk);
  if (!lag_state.ok()) {
    done(lag_state.status());
    return;
  }

  // Find the freshest peer (healthy over demoted, SSD over HDD at ties).
  uint64_t version_h = lag_state->version;
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  for (const ReplicaRef& r : layout->replicas) {
    if (r.server == lagging || servers_[r.server]->crashed()) {
      continue;
    }
    Result<ChunkServer::ReplicaState> st = servers_[r.server]->GetState(chunk);
    if (!st.ok() || st->version <= lag_state->version) {
      continue;
    }
    if (source == nullptr || st->version > version_h ||
        (st->version == version_h && PreferReplica(r, *source_ref))) {
      version_h = st->version;
      source = servers_[r.server];
      source_ref = &r;
    }
  }
  if (source == nullptr) {
    done(OkStatus());  // already up to date
    return;
  }

  auto ref = chunk_refs_.find(chunk);
  uint64_t chunk_size = disks_[ref->second.disk].chunk_size;
  uint64_t target_version = version_h;
  uint64_t view = layout->view;

  // The laggard may receive replications while the repair transfer runs;
  // never move its version backward when installing the repaired state.
  auto install = [laggard, chunk, target_version, view](const Status& s) {
    if (s.ok()) {
      Result<ChunkServer::ReplicaState> now = laggard->GetState(chunk);
      uint64_t v = now.ok() ? std::max(now->version, target_version) : target_version;
      laggard->SetState(chunk, v, view);
    }
  };
  std::vector<Interval> ranges;
  if (source->ModifiedSince(chunk, lag_state->version, &ranges)) {
    ++recovery_stats_.incremental_repairs;
    TransferRanges(chunk, source, laggard, std::move(ranges),
                   [install, done = std::move(done)](Status s) {
                     install(s);
                     done(s);
                   });
  } else {
    // History GC'd: transfer the whole chunk (§4.2.1).
    ++recovery_stats_.full_copies;
    TransferChunk(chunk, source, laggard, chunk_size,
                  [install, done = std::move(done)](Status s, uint64_t) {
                    install(s);
                    done(s);
                  });
  }
}

// ---- Tiered placement (DESIGN.md §13) ----

// Shared completion state for one migration. Exactly one of the transfer
// callbacks, the commit step, or the timeout finishes the op; everyone else
// sees `finished` and backs off.
struct Master::MigrationOp {
  ChunkId chunk = 0;
  bool finished = false;
  bool granted = false;          // holding an admission slot
  uint64_t admission_source = 0;
  sim::EventId timeout_event = 0;
  // Chunks allocated by this op; freed again if it aborts before commit.
  std::vector<std::pair<ServerId, ChunkId>> allocated;
  std::function<void(Status)> done;
};

// One attempt at back-filling a speculatively-promoted chunk from its
// shards (DESIGN.md §13.6). Exactly one of the final write completion, the
// timeout, or a cancel finishes a pass; late callbacks see `finished` or
// `canceled` and fall silent.
struct Master::SpecPass {
  ChunkId chunk = 0;
  bool finished = false;
  bool canceled = false;
  bool granted = false;          // holding an admission slot
  uint64_t admission_source = 0;
  sim::EventId timeout_event = 0;
  uint64_t chunk_size = 0;
  // Reconstructed old image: chunk bytes followed by m parity slots
  // (null in timing-only mode).
  std::shared_ptr<std::vector<uint8_t>> image;
  // Spec replicas alive at pass start — the set the commit installs. Must
  // be a majority of the spec set so it is guaranteed to intersect every
  // client write quorum (the freshest acked data is on some member).
  std::vector<ServerId> targets;
};

struct Master::SpecState {
  std::shared_ptr<SpecPass> pass;  // null between retries
  int retries = 0;
};

// Defined after SpecState so ~unique_ptr<SpecState> sees a complete type.
Master::~Master() = default;

ec::ReedSolomon* Master::Codec(int k, int m) {
  auto key = std::make_pair(k, m);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    it = codecs_.emplace(key, std::make_unique<ec::ReedSolomon>(k, m)).first;
  }
  return it->second.get();
}

Result<std::vector<ServerId>> Master::PickShardServers(int n, uint64_t salt) const {
  // Round-robin machines so a k+m stripe spreads as widely as the cluster
  // allows; with fewer machines than shards, machines host several shards
  // but always on distinct servers.
  size_t machines = placement_.num_machines();
  std::vector<std::vector<ServerId>> by_machine(machines);
  for (ServerId s = 0; s < static_cast<ServerId>(servers_.size()); ++s) {
    if (!servers_[s]->crashed()) {
      by_machine[placement_.MachineOf(s)].push_back(s);
    }
  }
  std::vector<ServerId> out;
  std::vector<size_t> cursor(machines, 0);
  bool progress = true;
  while (static_cast<int>(out.size()) < n && progress) {
    progress = false;
    for (size_t i = 0; i < machines && static_cast<int>(out.size()) < n; ++i) {
      size_t mi = (salt + i) % machines;
      if (cursor[mi] < by_machine[mi].size()) {
        out.push_back(by_machine[mi][cursor[mi]++]);
        progress = true;
      }
    }
  }
  if (static_cast<int>(out.size()) < n) {
    return ResourceExhausted("too few alive servers for an EC stripe");
  }
  return out;
}

void Master::PumpPieces(uint64_t size, ChunkServer* gated, qos::ServiceClass cls,
                        bool count_bytes, PieceMove move_piece,
                        std::function<void(Status, uint64_t)> done) {
  struct State {
    uint64_t next_offset = 0;
    uint64_t completed = 0;
    uint64_t total_pieces = 0;
    uint64_t version = 0;
    bool failed = false;
    bool waiting = false;
    std::function<void(Status, uint64_t)> done;
  };
  auto st = std::make_shared<State>();
  st->total_pieces = (size + recovery_piece_ - 1) / recovery_piece_;
  st->done = std::move(done);
  Loop::Start([this, size, gated, cls, count_bytes, st,
               move_piece = std::move(move_piece)](const Loop& again) {
    if (st->failed || st->waiting) {
      return;
    }
    // QoS backpressure: when the target device's scheduler reports `cls`
    // past its queue-depth high watermark, pause issuing pieces until it
    // drains to the low watermark (in-flight pieces finish).
    storage::IoGate* gate = gated == nullptr ? nullptr : gated->store()->device()->gate();
    if (gate != nullptr && gate->ShouldThrottle(cls)) {
      st->waiting = true;
      gate->WhenReady(cls, [st, again]() {
        st->waiting = false;
        again();
      });
      return;
    }
    while (st->next_offset < size &&
           (st->next_offset / recovery_piece_) - st->completed <
               static_cast<uint64_t>(recovery_window_)) {
      uint64_t offset = st->next_offset;
      uint64_t len = std::min(recovery_piece_, size - offset);
      st->next_offset += len;
      move_piece(offset, len, [this, len, count_bytes, st, again](const Status& s,
                                                                  uint64_t version) {
        if (st->failed) {
          return;
        }
        if (!s.ok()) {
          st->failed = true;
          st->done(s, 0);
          return;
        }
        st->version = std::max(st->version, version);
        if (count_bytes) {
          recovery_stats_.bytes_transferred += len;
        }
        if (++st->completed == st->total_pieces) {
          st->done(OkStatus(), st->version);
        } else {
          again();
        }
      });
    }
  });
}

std::vector<ServerId> Master::PlaceReplicaTargets(ChunkId chunk, size_t seq, int replication,
                                                 DiskId disk_id) const {
  std::vector<ServerId> targets;
  std::vector<MachineId> used;
  auto try_add = [this, chunk, &targets, &used](ServerId sid) {
    ChunkServer* server = servers_[sid];
    if (server->crashed() || server->HasChunk(chunk)) {
      return;
    }
    targets.push_back(sid);
    used.push_back(placement_.MachineOf(sid));
  };
  Result<std::vector<ServerId>> placed = placement_.PlaceChunk(seq, replication, disk_id * 7919);
  if (placed.ok()) {
    for (ServerId sid : *placed) {
      try_add(sid);
    }
  }
  for (uint64_t salt = chunk;
       static_cast<int>(targets.size()) < replication && salt < chunk + 2 * num_servers();
       ++salt) {
    Result<ServerId> cand = placement_.PlaceReplacement(targets.empty(), used, salt);
    if (cand.ok()) {
      try_add(*cand);
    }
  }
  return targets;
}

Status Master::RebuildShards(int k, int m, const std::vector<int>& sources,
                             const std::vector<int>& wanted,
                             const std::function<uint8_t*(int)>& slot, uint64_t len) {
  std::vector<const uint8_t*> shards(k + m, nullptr);
  for (int i : sources) {
    shards[i] = slot(i);
  }
  std::vector<uint8_t*> out(k + m, nullptr);
  for (int t : wanted) {
    out[t] = slot(t);
  }
  return Codec(k, m)->Reconstruct(shards, std::move(out), len);
}

void Master::ReadChunkPieces(ChunkServer* server, ChunkId chunk, uint64_t size, uint8_t* out,
                             std::shared_ptr<void> hold, qos::ServiceClass cls,
                             std::function<void(Status, uint64_t)> done) {
  PumpPieces(
      size, /*gated=*/nullptr, cls, /*count_bytes=*/false,
      [server, chunk, out, cls, hold = std::move(hold)](uint64_t offset, uint64_t len,
                                                         PieceLanded landed) {
        server->HandleRecoveryRead(chunk, offset, len, out == nullptr ? nullptr : out + offset,
                                   std::move(landed), cls);
      },
      std::move(done));
}

void Master::WriteChunkPieces(ChunkServer* target, ChunkId chunk, uint64_t size,
                              const uint8_t* data, std::shared_ptr<void> hold,
                              net::NodeId from_node, qos::ServiceClass cls,
                              std::function<void(Status)> done, bool shielded) {
  PumpPieces(
      size, target, cls, /*count_bytes=*/true,
      [this, target, chunk, data, from_node, cls, shielded, hold = std::move(hold)](
          uint64_t offset, uint64_t len, PieceLanded landed) {
        uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, len);
        transport_->Send(from_node, target->node(), wire,
                         [target, chunk, offset, len, data, cls, shielded,
                          landed = std::move(landed)]() {
                           auto piece_done = [landed](const Status& s) { landed(s, 0); };
                           const uint8_t* src = data == nullptr ? nullptr : data + offset;
                           if (shielded) {
                             target->HandleBackfillWrite(chunk, offset, len,
                                                         ursa::BufferView::Unowned(src, len),
                                                         std::move(piece_done), cls);
                           } else {
                             target->HandleRecoveryWrite(chunk, offset, len, src,
                                                         std::move(piece_done), cls);
                           }
                         });
      },
      [done = std::move(done)](Status s, uint64_t) { done(s); });
}

void Master::CompleteMigration(std::shared_ptr<MigrationOp> op, Status s) {
  if (op->finished) {
    return;
  }
  op->finished = true;
  if (op->timeout_event != 0) {
    sim_->Cancel(op->timeout_event);
  }
  if (op->granted) {
    admission_->Release(op->admission_source);
  }
  if (!s.ok()) {
    // Roll back anything this op allocated but never committed.
    for (const auto& [sid, cid] : op->allocated) {
      if (!servers_[sid]->crashed() && servers_[sid]->HasChunk(cid)) {
        servers_[sid]->FreeChunk(cid);
      }
      ec_shards_.erase(cid);
      if (heat_ != nullptr) {
        heat_->ClearAlias(cid);
      }
    }
  }
  FinishMigration(op->chunk);
  if (op->done) {
    op->done(std::move(s));
  }
}

void Master::FinishMigration(ChunkId chunk) {
  migrating_.erase(chunk);
  auto it = promote_waiters_.find(chunk);
  if (it == promote_waiters_.end()) {
    return;
  }
  std::vector<std::function<void(Status)>> waiters = std::move(it->second);
  promote_waiters_.erase(it);
  for (auto& waiter : waiters) {
    // Re-enter through the front door: if the finished migration was the
    // promotion, this completes immediately via the idempotent path.
    sim_->After(0, [this, chunk, waiter = std::move(waiter)]() mutable {
      PromoteChunk(chunk, false, std::move(waiter));
    });
  }
}

// ---- Speculative write promotion (DESIGN.md §13.6) ----

void Master::BeginWritePromote(ChunkId chunk, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  if (layout->tier == ChunkTier::kReplicated && migrating_.count(chunk) == 0) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (layout->speculating()) {
    // Join the in-flight speculation: the caller can write immediately.
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (migrating_.count(chunk) > 0) {
    // A demote/promote/shard repair owns the chunk; queue behind it (the
    // waiter re-enters through PromoteChunk's idempotent path).
    promote_waiters_[chunk].push_back(std::move(done));
    return;
  }
  if (!speculative_promote_ || layout->tier != ChunkTier::kEc) {
    PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
    return;
  }

  // Place the future replica set exactly like a blocking promotion would.
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  const int replication = disk.replication;
  std::vector<ServerId> targets =
      PlaceReplicaTargets(chunk, ref->second.index, replication, disk.id);
  if (static_cast<int>(targets.size()) < replication) {
    // Not enough healthy servers for the fast path; take the blocking one
    // (it shares the shortage, but also its retry/queueing machinery).
    PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
    return;
  }
  // Allocate all-or-nothing, then install. Targets start at the frozen EC
  // version AND the *current* view: shard reads stay valid and the client
  // needs no resteer — the view bumps only at commit.
  std::vector<ReplicaRef> refs;
  for (size_t i = 0; i < targets.size(); ++i) {
    ChunkServer* server = servers_[targets[i]];
    Status alloc = server->AllocateChunk(chunk, layout->view, disk.id);
    if (!alloc.ok()) {
      for (size_t j = 0; j < i; ++j) {
        servers_[targets[j]]->FreeChunk(chunk);
      }
      PromoteChunk(chunk, /*write_triggered=*/true, std::move(done));
      return;
    }
    server->SetState(chunk, layout->ec_version, layout->view);
    server->EnableWriteShield(chunk);
    refs.push_back(ReplicaRef{targets[i], server->node(), server->on_ssd(),
                              IsDemoted(targets[i])});
  }
  layout->spec_replicas = std::move(refs);
  layout->spec_extents.clear();
  migrating_.insert(chunk);
  spec_[chunk] = std::make_unique<SpecState>();
  StartSpecBackfill(chunk);
  // The ack gate is gone: the caller may write as soon as this fires.
  sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
}

void Master::RegisterSpecExtent(ChunkId chunk, uint64_t offset, uint64_t length) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || !layout->speculating()) {
    return;  // committed (or never speculated) — extents are moot
  }
  InsertInterval(&layout->spec_extents, Interval{offset, length});
}

void Master::CancelSpecPass(SpecState* st) {
  if (st == nullptr || st->pass == nullptr) {
    return;
  }
  st->pass->canceled = true;
  if (st->pass->timeout_event != 0) {
    sim_->Cancel(st->pass->timeout_event);
    st->pass->timeout_event = 0;
  }
  if (st->pass->granted) {
    admission_->Release(st->pass->admission_source);
    st->pass->granted = false;
  }
  st->pass = nullptr;
}

void Master::StartSpecBackfill(ChunkId chunk) {
  auto it = spec_.find(chunk);
  if (it == spec_.end() || it->second->pass != nullptr) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating()) {
    return;  // committed or vanished while the retry was pending
  }
  auto pass = std::make_shared<SpecPass>();
  pass->chunk = chunk;
  it->second->pass = pass;
  pass->timeout_event = sim_->After(migration_timeout_, [this, chunk, pass]() {
    pass->timeout_event = 0;
    FailSpecPass(chunk, pass, TimedOut("spec back-fill timed out"));
  });
  // First alive shard is the admission source, as in PromoteChunk. The
  // back-fill unblocks the chunk's EC capacity reclaim but no ack, so it
  // competes at recovery priority like any promotion finishing a write.
  ChunkServer* admit_on = nullptr;
  for (const EcShardRef& sh : layout->ec_shards) {
    if (!servers_[sh.server]->crashed()) {
      admit_on = servers_[sh.server];
      break;
    }
  }
  if (admit_on == nullptr) {
    FailSpecPass(chunk, pass, Unavailable("no alive shard"));
    return;
  }
  if (admission_ != nullptr) {
    pass->admission_source = admit_on->id();
    admission_->Acquire(admit_on->id(), scrub::RecoveryAdmission::Priority::kRecovery,
                        [this, chunk, pass]() {
                          if (pass->finished || pass->canceled) {
                            admission_->Release(pass->admission_source);
                            return;
                          }
                          pass->granted = true;
                          RunSpecBackfill(chunk, pass);
                        });
  } else {
    RunSpecBackfill(chunk, pass);
  }
}

void Master::RunSpecBackfill(ChunkId chunk, std::shared_ptr<SpecPass> pass) {
  if (pass->finished || pass->canceled) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating()) {
    FailSpecPass(chunk, pass, Aborted("layout changed"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const uint64_t shard_size = layout->ec_shard_size;
  pass->chunk_size = disk.chunk_size;
  const std::vector<EcShardRef> shards = layout->ec_shards;

  // The commit installs exactly the replicas this pass back-fills, so fix
  // the target set now: every spec replica alive at this instant. A
  // majority of the spec set is required — it then intersects every client
  // write quorum, so the max-version committed replica holds all acked data.
  pass->targets.clear();
  for (const ReplicaRef& r : layout->spec_replicas) {
    if (!servers_[r.server]->crashed()) {
      pass->targets.push_back(r.server);
    }
  }
  if (pass->targets.size() < layout->spec_replicas.size() / 2 + 1) {
    FailSpecPass(chunk, pass, Unavailable("spec replica majority down"));
    return;
  }

  std::vector<bool> alive(n);
  for (int i = 0; i < n; ++i) {
    alive[i] = !servers_[shards[i].server]->crashed();
  }
  ec::BackfillReadPlan plan;
  Status plan_s = ec::PlanBackfillRead(alive, k, m, &plan);
  if (!plan_s.ok()) {
    FailSpecPass(chunk, pass, plan_s);
    return;
  }
  const bool carry = recovery_carries_data_;
  pass->image = carry ? std::make_shared<std::vector<uint8_t>>(
                            pass->chunk_size + static_cast<uint64_t>(m) * shard_size)
                      : nullptr;
  auto buf = pass->image;
  const uint64_t chunk_size = pass->chunk_size;
  auto slot = [buf, chunk_size, shard_size, k](int i) -> uint8_t* {
    if (!buf) {
      return nullptr;
    }
    return i < k ? buf->data() + static_cast<uint64_t>(i) * shard_size
                 : buf->data() + chunk_size + static_cast<uint64_t>(i - k) * shard_size;
  };

  auto remaining = std::make_shared<int>(k);
  for (int idx : plan.sources) {
    ReadChunkPieces(
        servers_[shards[idx].server], shards[idx].shard_chunk, shard_size, slot(idx), buf,
        qos::ServiceClass::kRecovery,
        [this, chunk, pass, buf, carry, slot, plan, shards, k, m, n, shard_size,
         remaining](const Status& s, uint64_t) {
          if (pass->finished || pass->canceled) {
            return;
          }
          if (!s.ok()) {
            FailSpecPass(chunk, pass, s);
            return;
          }
          if (--*remaining > 0) {
            return;
          }
          // All k source shards are in; rebuild any dead data shards so the
          // image is complete before it streams out.
          if (carry && !plan.missing_data.empty()) {
            Status rs = RebuildShards(k, m, plan.sources, plan.missing_data, slot, shard_size);
            if (!rs.ok()) {
              FailSpecPass(chunk, pass, rs);
              return;
            }
          }
          // Stream the old image into every pass target through the write
          // shield: ranges the client already wrote are subtracted at apply
          // time, so old bytes can never clobber new data.
          auto wremaining = std::make_shared<int>(static_cast<int>(pass->targets.size()));
          net::NodeId from_node = shards[plan.sources[0]].node;
          for (ServerId sid : pass->targets) {
            WriteChunkPieces(servers_[sid], chunk, pass->chunk_size,
                             carry ? buf->data() : nullptr, buf, from_node,
                             qos::ServiceClass::kRecovery,
                             [this, chunk, pass, wremaining](const Status& ws) {
                               if (pass->finished || pass->canceled) {
                                 return;
                               }
                               if (!ws.ok()) {
                                 FailSpecPass(chunk, pass, ws);
                                 return;
                               }
                               if (--*wremaining > 0) {
                                 return;
                               }
                               CommitSpecPromote(chunk, pass);
                             },
                             /*shielded=*/true);
          }
        });
  }
}

void Master::FailSpecPass(ChunkId chunk, std::shared_ptr<SpecPass> pass, Status s) {
  if (pass->finished || pass->canceled) {
    return;
  }
  pass->finished = true;
  if (pass->timeout_event != 0) {
    sim_->Cancel(pass->timeout_event);
  }
  if (pass->granted) {
    admission_->Release(pass->admission_source);
  }
  auto it = spec_.find(chunk);
  if (it == spec_.end() || it->second->pass != pass) {
    return;
  }
  it->second->pass = nullptr;
  ++it->second->retries;
  ++tier_stats_.spec_backfill_retries;
  (void)s;  // the retry is unconditional; the cause only matters for stats
  sim_->After(spec_retry_, [this, chunk]() { StartSpecBackfill(chunk); });
}

void Master::CommitSpecPromote(ChunkId chunk, std::shared_ptr<SpecPass> pass) {
  if (pass->finished || pass->canceled) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  auto it = spec_.find(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc || !layout->speculating() ||
      it == spec_.end() || it->second->pass != pass) {
    FailSpecPass(chunk, pass, Aborted("layout changed"));
    return;
  }
  pass->finished = true;
  if (pass->timeout_event != 0) {
    sim_->Cancel(pass->timeout_event);
  }
  if (pass->granted) {
    admission_->Release(pass->admission_source);
  }

  const uint64_t new_view = layout->view + 1;
  // Retire the shards (a crashed server keeps its stale image, as in
  // CommitPromote — unreachable and no longer indexed).
  for (const EcShardRef& sh : layout->ec_shards) {
    ChunkServer* server = servers_[sh.server];
    if (!server->crashed() && server->HasChunk(sh.shard_chunk)) {
      server->FreeChunk(sh.shard_chunk);
    }
    ec_shards_.erase(sh.shard_chunk);
    if (heat_ != nullptr) {
      heat_->ClearAlias(sh.shard_chunk);
    }
  }
  layout->ec_shards.clear();
  layout->ec_k = 0;
  layout->ec_m = 0;
  layout->ec_shard_size = 0;
  layout->ec_version = 0;
  layout->tier = ChunkTier::kReplicated;
  layout->replicas.clear();
  std::set<ServerId> committed(pass->targets.begin(), pass->targets.end());
  for (ServerId sid : pass->targets) {
    ChunkServer* server = servers_[sid];
    // SetView, not SetState: the spec replicas carry client-advanced
    // versions — wiping them back to the frozen one would orphan the acked
    // writes. A target that crashed after completing its back-fill misses
    // the install (like SetServerDemoted's view pushes) and resyncs through
    // the stale-replica repair path once restored.
    if (!server->crashed()) {
      server->SetView(chunk, new_view);
    }
    server->DisableWriteShield(chunk);
    layout->replicas.push_back(
        ReplicaRef{sid, server->node(), server->on_ssd(), IsDemoted(sid)});
  }
  // Spec replicas dropped at pass start (crashed then): free any that have
  // come back — their image is a hole-ridden mix and they are not in the
  // new replica set.
  for (const ReplicaRef& r : layout->spec_replicas) {
    if (committed.count(r.server) > 0) {
      continue;
    }
    ChunkServer* server = servers_[r.server];
    if (!server->crashed() && server->HasChunk(chunk)) {
      server->FreeChunk(chunk);
    }
  }
  layout->spec_replicas.clear();
  layout->spec_extents.clear();
  layout->view = new_view;
  SortLayout(layout);
  ++recovery_stats_.view_changes;
  ++tier_stats_.promotions;
  ++tier_stats_.write_promotions;
  ++tier_stats_.spec_promotions;
  spec_.erase(it);
  NotifyTierChanged(chunk, false);
  FinishMigration(chunk);
}

void Master::DemoteChunkToEc(ChunkId chunk, int k, int m, std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    fail(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kReplicated) {
    fail(AlreadyExists("chunk already EC"));
    return;
  }
  if (migrating_.count(chunk) > 0) {
    fail(Unavailable("migration already in flight"));
    return;
  }
  if (k < 1 || m < 1) {
    fail(InvalidArgument("bad EC geometry"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  if (disk.chunk_size % static_cast<uint64_t>(k) != 0) {
    fail(InvalidArgument("chunk size not divisible by k"));
    return;
  }
  if (heat_ != nullptr && heat_->InflightWrites(chunk) > 0) {
    fail(Unavailable("writes in flight"));
    return;
  }
  // Replay writes into a freed chunk would fail hard (the journal replayer
  // treats a missing backup chunk as unrecoverable), so a replica with
  // pending journal records pins the chunk on the replicated tier.
  uint64_t version0 = 0;
  bool have_version = false;
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  for (const ReplicaRef& r : layout->replicas) {
    ChunkServer* server = servers_[r.server];
    if (server->crashed()) {
      continue;
    }
    if (server->HasJournalBacklog(chunk)) {
      fail(Unavailable("journal backlog pending"));
      return;
    }
    Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (!have_version) {
      version0 = st->version;
      have_version = true;
    } else if (st->version != version0) {
      // Divergent replicas mean a repair is due; demote after it heals.
      fail(Unavailable("replicas diverge"));
      return;
    }
    if (source == nullptr || PreferReplica(r, *source_ref)) {
      source = server;
      source_ref = &r;
    }
  }
  if (source == nullptr) {
    fail(Unavailable("no alive replica"));
    return;
  }

  auto op = std::make_shared<MigrationOp>();
  op->chunk = chunk;
  op->done = std::move(done);
  migrating_.insert(chunk);
  op->timeout_event = sim_->After(migration_timeout_, [this, op]() {
    op->timeout_event = 0;
    ++tier_stats_.demote_failures;
    CompleteMigration(op, TimedOut("demotion timed out"));
  });
  if (admission_ != nullptr) {
    op->admission_source = source->id();
    admission_->Acquire(source->id(), scrub::RecoveryAdmission::Priority::kScrub,
                        [this, chunk, k, m, op]() {
                          if (op->finished) {
                            admission_->Release(op->admission_source);
                            return;
                          }
                          op->granted = true;
                          DemoteChunkNow(chunk, k, m, op);
                        });
  } else {
    DemoteChunkNow(chunk, k, m, op);
  }
}

void Master::DemoteChunkNow(ChunkId chunk, int k, int m, std::shared_ptr<MigrationOp> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kReplicated) {
    ++tier_stats_.demote_failures;
    CompleteMigration(op, Aborted("layout changed"));
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  const uint64_t chunk_size = disk.chunk_size;
  const uint64_t shard_size = chunk_size / static_cast<uint64_t>(k);
  const int n = k + m;

  // Re-pick the source (state may have shifted while queued for admission).
  ChunkServer* source = nullptr;
  const ReplicaRef* source_ref = nullptr;
  uint64_t version0 = 0;
  for (const ReplicaRef& r : layout->replicas) {
    ChunkServer* server = servers_[r.server];
    if (server->crashed()) {
      continue;
    }
    Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
    if (!st.ok()) {
      continue;
    }
    if (source == nullptr || PreferReplica(r, *source_ref)) {
      source = server;
      source_ref = &r;
      version0 = st->version;
    }
  }
  if (source == nullptr) {
    ++tier_stats_.demote_failures;
    CompleteMigration(op, Unavailable("no alive replica"));
    return;
  }
  Result<std::vector<ServerId>> targets = PickShardServers(n, chunk);
  if (!targets.ok()) {
    ++tier_stats_.demote_failures;
    CompleteMigration(op, targets.status());
    return;
  }
  // Buffer: the chunk image (k contiguous data shards) followed by m parity
  // shards. Timing-only mode (large benches) skips the bytes entirely.
  const bool carry = recovery_carries_data_;
  auto buf = carry ? std::make_shared<std::vector<uint8_t>>(chunk_size +
                                                            static_cast<uint64_t>(m) * shard_size)
                   : nullptr;
  ReadChunkPieces(
      source, chunk, chunk_size, carry ? buf->data() : nullptr, buf, qos::ServiceClass::kScrub,
      [this, chunk, k, m, n, shard_size, chunk_size, op, buf, carry, source,
       targets = *targets, disk_id = disk.id, version0](const Status& s, uint64_t) {
        if (op->finished) {
          return;
        }
        if (!s.ok()) {
          ++tier_stats_.demote_failures;
          CompleteMigration(op, s);
          return;
        }
        ChunkLayout* layout = FindLayout(chunk);
        if (layout == nullptr || layout->tier != ChunkTier::kReplicated) {
          ++tier_stats_.demote_failures;
          CompleteMigration(op, Aborted("layout changed"));
          return;
        }
        if (carry) {
          std::vector<const uint8_t*> data(k);
          std::vector<uint8_t*> parity(m);
          for (int i = 0; i < k; ++i) {
            data[i] = buf->data() + static_cast<uint64_t>(i) * shard_size;
          }
          for (int j = 0; j < m; ++j) {
            parity[j] = buf->data() + chunk_size + static_cast<uint64_t>(j) * shard_size;
          }
          Codec(k, m)->Encode(data, parity, shard_size);
        }
        tier_stats_.ec_bytes_encoded += chunk_size;

        std::vector<EcShardRef> shards(n);
        const uint64_t alloc_view = layout->view + 1;
        for (int i = 0; i < n; ++i) {
          ChunkServer* target = servers_[targets[i]];
          ChunkId shard_id = next_chunk_id_++;
          Status alloc = target->AllocateChunk(shard_id, alloc_view, disk_id);
          if (!alloc.ok()) {
            ++tier_stats_.demote_failures;
            CompleteMigration(op, alloc);
            return;
          }
          op->allocated.emplace_back(targets[i], shard_id);
          ec_shards_[shard_id] = EcShardInfo{chunk, i};
          if (heat_ != nullptr) {
            heat_->SetAlias(shard_id, chunk);
          }
          shards[i] = EcShardRef{targets[i], target->node(), shard_id};
        }

        auto remaining = std::make_shared<int>(n);
        for (int i = 0; i < n; ++i) {
          const uint8_t* src = nullptr;
          if (carry) {
            src = i < k ? buf->data() + static_cast<uint64_t>(i) * shard_size
                        : buf->data() + chunk_size + static_cast<uint64_t>(i - k) * shard_size;
          }
          WriteChunkPieces(servers_[shards[i].server], shards[i].shard_chunk, shard_size, src,
                           buf, source->node(), qos::ServiceClass::kScrub,
                           [this, chunk, op, shards, remaining, version0, k, m,
                            shard_size](const Status& ws) {
                             if (op->finished) {
                               return;
                             }
                             if (!ws.ok()) {
                               ++tier_stats_.demote_failures;
                               CompleteMigration(op, ws);
                               return;
                             }
                             if (--*remaining > 0) {
                               return;
                             }
                             CommitDemote(chunk, shards, version0, k, m, shard_size, op);
                           });
        }
      });
}

void Master::CommitDemote(ChunkId chunk, std::vector<EcShardRef> shards, uint64_t frozen_version,
                          int k, int m, uint64_t shard_size, std::shared_ptr<MigrationOp> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  // Atomic commit check: this whole function is one event, so nothing can
  // interleave between the verification and the layout swap. Any write that
  // landed during the copy (version moved), is still in the server pipeline
  // (in-flight counter), or left journal records aborts the demotion — the
  // shard images would be torn.
  bool dirty = layout == nullptr || layout->tier != ChunkTier::kReplicated;
  if (!dirty && heat_ != nullptr && heat_->InflightWrites(chunk) > 0) {
    dirty = true;
  }
  if (!dirty) {
    for (const ReplicaRef& r : layout->replicas) {
      ChunkServer* server = servers_[r.server];
      if (server->crashed()) {
        continue;
      }
      Result<ChunkServer::ReplicaState> st = server->GetState(chunk);
      if ((st.ok() && st->version != frozen_version) || server->HasJournalBacklog(chunk)) {
        dirty = true;
        break;
      }
    }
  }
  if (dirty) {
    ++tier_stats_.demote_aborts;
    CompleteMigration(op, Aborted("chunk went hot during demotion"));
    return;
  }
  const uint64_t new_view = layout->view + 1;
  for (const ReplicaRef& r : layout->replicas) {
    if (!servers_[r.server]->crashed()) {
      servers_[r.server]->FreeChunk(chunk);
    }
  }
  layout->replicas.clear();
  layout->tier = ChunkTier::kEc;
  layout->ec_shards = std::move(shards);
  layout->ec_k = static_cast<uint16_t>(k);
  layout->ec_m = static_cast<uint16_t>(m);
  layout->ec_shard_size = shard_size;
  layout->ec_version = frozen_version;
  layout->view = new_view;
  ++recovery_stats_.view_changes;
  for (const EcShardRef& sh : layout->ec_shards) {
    servers_[sh.server]->SetView(sh.shard_chunk, new_view);
  }
  op->allocated.clear();  // committed: the abort path must not free them
  ++tier_stats_.demotions;
  NotifyTierChanged(chunk, true);
  CompleteMigration(op, OkStatus());
}

void Master::PromoteChunk(ChunkId chunk, bool write_triggered, std::function<void(Status)> done) {
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr) {
    sim_->After(0, [done = std::move(done)]() { done(NotFound("unknown chunk")); });
    return;
  }
  if (layout->tier == ChunkTier::kReplicated && migrating_.count(chunk) == 0) {
    sim_->After(0, [done = std::move(done)]() { done(OkStatus()); });
    return;
  }
  if (migrating_.count(chunk) > 0) {
    // Queue behind the in-flight migration (demote, promote, or shard
    // repair); FinishMigration re-runs us, and the idempotent path above
    // completes immediately if someone else already promoted.
    promote_waiters_[chunk].push_back(std::move(done));
    return;
  }
  // First alive shard is the admission source (the stripe read fans out, but
  // one slot per migration keeps the controller's accounting simple).
  ChunkServer* admit_on = nullptr;
  for (const EcShardRef& sh : layout->ec_shards) {
    if (!servers_[sh.server]->crashed()) {
      admit_on = servers_[sh.server];
      break;
    }
  }
  if (admit_on == nullptr) {
    ++tier_stats_.promote_failures;
    sim_->After(0, [done = std::move(done)]() { done(Unavailable("no alive shard")); });
    return;
  }
  auto op = std::make_shared<MigrationOp>();
  op->chunk = chunk;
  op->done = std::move(done);
  migrating_.insert(chunk);
  op->timeout_event = sim_->After(migration_timeout_, [this, op]() {
    op->timeout_event = 0;
    ++tier_stats_.promote_failures;
    CompleteMigration(op, TimedOut("promotion timed out"));
  });
  if (admission_ != nullptr) {
    op->admission_source = admit_on->id();
    // A write is blocked on this promotion, so it competes at recovery
    // priority; policy promotions yield like scrub traffic.
    auto priority = write_triggered ? scrub::RecoveryAdmission::Priority::kRecovery
                                    : scrub::RecoveryAdmission::Priority::kScrub;
    admission_->Acquire(admit_on->id(), priority, [this, chunk, write_triggered, op]() {
      if (op->finished) {
        admission_->Release(op->admission_source);
        return;
      }
      op->granted = true;
      PromoteChunkNow(chunk, write_triggered, op);
    });
  } else {
    PromoteChunkNow(chunk, write_triggered, op);
  }
}

void Master::PromoteChunkNow(ChunkId chunk, bool write_triggered,
                             std::shared_ptr<MigrationOp> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    CompleteMigration(op, layout == nullptr ? NotFound("unknown chunk") : OkStatus());
    return;
  }
  auto ref = chunk_refs_.find(chunk);
  const DiskMeta& disk = disks_[ref->second.disk];
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const uint64_t shard_size = layout->ec_shard_size;
  const uint64_t chunk_size = disk.chunk_size;
  const uint64_t frozen_version = layout->ec_version;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  const qos::ServiceClass cls =
      write_triggered ? qos::ServiceClass::kRecovery : qos::ServiceClass::kScrub;

  // Any k alive shards suffice; data shards first minimizes reconstruction.
  std::vector<bool> alive(n);
  for (int i = 0; i < n; ++i) {
    alive[i] = !servers_[shards[i].server]->crashed();
  }
  ec::BackfillReadPlan rplan;
  Status plan_s = ec::PlanBackfillRead(alive, k, m, &rplan);
  if (!plan_s.ok()) {
    ++tier_stats_.promote_failures;
    CompleteMigration(op, plan_s);
    return;
  }
  const std::vector<int> sources = rplan.sources;
  const bool carry = recovery_carries_data_;
  auto buf = carry ? std::make_shared<std::vector<uint8_t>>(chunk_size +
                                                            static_cast<uint64_t>(m) * shard_size)
                   : nullptr;
  auto slot = [buf, chunk_size, shard_size, k](int i) -> uint8_t* {
    if (!buf) {
      return nullptr;
    }
    return i < k ? buf->data() + static_cast<uint64_t>(i) * shard_size
                 : buf->data() + chunk_size + static_cast<uint64_t>(i - k) * shard_size;
  };

  auto remaining = std::make_shared<int>(k);
  for (int idx : sources) {
    ReadChunkPieces(
        servers_[shards[idx].server], shards[idx].shard_chunk, shard_size, slot(idx), buf, cls,
        [this, chunk, write_triggered, op, buf, carry, slot, sources, shards, k, m, n,
         shard_size, chunk_size, frozen_version, cls, remaining, disk_id = disk.id,
         seq = ref->second.index, replication = disk.replication](const Status& s, uint64_t) {
          if (op->finished) {
            return;
          }
          if (!s.ok()) {
            ++tier_stats_.promote_failures;
            CompleteMigration(op, s);
            return;
          }
          if (--*remaining > 0) {
            return;
          }
          // All k source shards are in; rebuild any missing data shards.
          if (carry) {
            std::vector<int> wanted;
            for (int d = 0; d < k; ++d) {
              if (std::find(sources.begin(), sources.end(), d) == sources.end()) {
                wanted.push_back(d);
              }
            }
            Status rs = RebuildShards(k, m, sources, wanted, slot, shard_size);
            if (!rs.ok()) {
              ++tier_stats_.promote_failures;
              CompleteMigration(op, rs);
              return;
            }
          }
          // Place fresh replicas through the normal policy; top up around
          // crashed servers with replacements.
          ChunkLayout* layout = FindLayout(chunk);
          if (layout == nullptr || layout->tier != ChunkTier::kEc) {
            CompleteMigration(op, Aborted("layout changed"));
            return;
          }
          std::vector<ServerId> targets = PlaceReplicaTargets(chunk, seq, replication, disk_id);
          if (static_cast<int>(targets.size()) < replication) {
            ++tier_stats_.promote_failures;
            CompleteMigration(op, ResourceExhausted("too few servers to re-replicate"));
            return;
          }
          const uint64_t new_view = layout->view + 1;
          for (ServerId sid : targets) {
            Status alloc = servers_[sid]->AllocateChunk(chunk, new_view, disk_id);
            if (!alloc.ok()) {
              ++tier_stats_.promote_failures;
              CompleteMigration(op, alloc);
              return;
            }
            op->allocated.emplace_back(sid, chunk);
          }
          auto wremaining = std::make_shared<int>(static_cast<int>(targets.size()));
          for (ServerId sid : targets) {
            WriteChunkPieces(servers_[sid], chunk, chunk_size, carry ? buf->data() : nullptr,
                             buf, shards[sources[0]].node, cls,
                             [this, chunk, op, targets, write_triggered, wremaining,
                              frozen_version](const Status& ws) {
                               if (op->finished) {
                                 return;
                               }
                               if (!ws.ok()) {
                                 ++tier_stats_.promote_failures;
                                 CompleteMigration(op, ws);
                                 return;
                               }
                               if (--*wremaining > 0) {
                                 return;
                               }
                               CommitPromote(chunk, targets, frozen_version, write_triggered,
                                             op);
                             });
          }
        });
  }
}

void Master::CommitPromote(ChunkId chunk, std::vector<ServerId> targets,
                           uint64_t frozen_version, bool write_triggered,
                           std::shared_ptr<MigrationOp> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(chunk);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    CompleteMigration(op, Aborted("layout changed"));
    return;
  }
  const uint64_t new_view = layout->view + 1;
  for (const EcShardRef& sh : layout->ec_shards) {
    ChunkServer* server = servers_[sh.server];
    if (!server->crashed() && server->HasChunk(sh.shard_chunk)) {
      server->FreeChunk(sh.shard_chunk);
    }
    // A crashed server keeps its stale shard image; it is unreachable and no
    // longer indexed, so it can never serve (or corrupt) future reads.
    ec_shards_.erase(sh.shard_chunk);
    if (heat_ != nullptr) {
      heat_->ClearAlias(sh.shard_chunk);
    }
  }
  layout->ec_shards.clear();
  layout->ec_k = 0;
  layout->ec_m = 0;
  layout->ec_shard_size = 0;
  layout->ec_version = 0;
  layout->tier = ChunkTier::kReplicated;
  layout->replicas.clear();
  for (ServerId sid : targets) {
    ChunkServer* server = servers_[sid];
    // The EC tier froze the replica version at demotion; restore it so the
    // promoted chunk resumes exactly where the replicated history left off.
    server->SetState(chunk, frozen_version, new_view);
    layout->replicas.push_back(
        ReplicaRef{sid, server->node(), server->on_ssd(), IsDemoted(sid)});
  }
  layout->view = new_view;
  SortLayout(layout);
  ++recovery_stats_.view_changes;
  op->allocated.clear();
  ++tier_stats_.promotions;
  if (write_triggered) {
    ++tier_stats_.write_promotions;
  }
  NotifyTierChanged(chunk, false);
  CompleteMigration(op, OkStatus());
}

void Master::RepairEcShard(ChunkId parent, int shard_index, std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  ChunkLayout* layout = FindLayout(parent);
  if (layout == nullptr) {
    fail(NotFound("unknown chunk"));
    return;
  }
  if (layout->tier != ChunkTier::kEc) {
    fail(OkStatus());  // promoted away in the meantime; nothing to repair
    return;
  }
  if (shard_index < 0 || shard_index >= static_cast<int>(layout->ec_shards.size())) {
    fail(InvalidArgument("bad shard index"));
    return;
  }
  if (migrating_.count(parent) > 0) {
    fail(Unavailable("migration in flight"));
    return;
  }
  ChunkServer* admit_on = nullptr;
  for (int i = 0; i < static_cast<int>(layout->ec_shards.size()); ++i) {
    if (i != shard_index && !servers_[layout->ec_shards[i].server]->crashed()) {
      admit_on = servers_[layout->ec_shards[i].server];
      break;
    }
  }
  if (admit_on == nullptr) {
    fail(Unavailable("fewer than k shards alive"));
    return;
  }
  auto op = std::make_shared<MigrationOp>();
  op->chunk = parent;
  op->done = std::move(done);
  migrating_.insert(parent);
  op->timeout_event = sim_->After(migration_timeout_, [this, op]() {
    op->timeout_event = 0;
    CompleteMigration(op, TimedOut("shard repair timed out"));
  });
  if (admission_ != nullptr) {
    op->admission_source = admit_on->id();
    admission_->Acquire(admit_on->id(), scrub::RecoveryAdmission::Priority::kRecovery,
                        [this, parent, shard_index, op]() {
                          if (op->finished) {
                            admission_->Release(op->admission_source);
                            return;
                          }
                          op->granted = true;
                          RepairEcShardNow(parent, shard_index, op);
                        });
  } else {
    RepairEcShardNow(parent, shard_index, op);
  }
}

void Master::RepairEcShardNow(ChunkId parent, int shard_index,
                              std::shared_ptr<MigrationOp> op) {
  if (op->finished) {
    return;
  }
  ChunkLayout* layout = FindLayout(parent);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    CompleteMigration(op, Aborted("layout changed"));
    return;
  }
  auto ref = chunk_refs_.find(parent);
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const uint64_t shard_size = layout->ec_shard_size;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  const ChunkId shard_id = shards[shard_index].shard_chunk;
  const ServerId old_server = shards[shard_index].server;

  std::vector<int> sources;
  for (int i = 0; i < n && static_cast<int>(sources.size()) < k; ++i) {
    if (i != shard_index && !servers_[shards[i].server]->crashed()) {
      sources.push_back(i);
    }
  }
  if (static_cast<int>(sources.size()) < k) {
    CompleteMigration(op, Unavailable("fewer than k shards alive"));
    return;
  }
  // Replacement: no machine hosting a surviving shard, falling back to any
  // alive server that doesn't already hold a piece of this stripe.
  std::vector<MachineId> exclude;
  for (int i = 0; i < n; ++i) {
    if (i != shard_index && !servers_[shards[i].server]->crashed()) {
      exclude.push_back(placement_.MachineOf(shards[i].server));
    }
  }
  auto hosts_stripe = [&shards](ChunkServer* server) {
    for (const EcShardRef& sh : shards) {
      if (server->HasChunk(sh.shard_chunk)) {
        return true;
      }
    }
    return false;
  };
  ChunkServer* replacement = nullptr;
  const std::vector<MachineId> no_exclusions;
  for (int relax = 0; relax < 2 && replacement == nullptr; ++relax) {
    const std::vector<MachineId>& excl = relax == 0 ? exclude : no_exclusions;
    for (uint64_t salt = parent; salt < parent + num_servers(); ++salt) {
      Result<ServerId> cand = placement_.PlaceReplacement(false, excl, salt);
      if (!cand.ok()) {
        continue;
      }
      ChunkServer* server = servers_[*cand];
      if (*cand != old_server && !server->crashed() && !hosts_stripe(server)) {
        replacement = server;
        break;
      }
    }
  }
  if (replacement == nullptr) {
    CompleteMigration(op, ResourceExhausted("no replacement server for shard"));
    return;
  }
  const bool carry = recovery_carries_data_;
  auto buf =
      carry ? std::make_shared<std::vector<uint8_t>>(static_cast<uint64_t>(n) * shard_size)
            : nullptr;
  auto slot = [buf, shard_size](int i) -> uint8_t* {
    return buf ? buf->data() + static_cast<uint64_t>(i) * shard_size : nullptr;
  };
  auto remaining = std::make_shared<int>(k);
  for (int idx : sources) {
    ReadChunkPieces(
        servers_[shards[idx].server], shards[idx].shard_chunk, shard_size, slot(idx), buf,
        qos::ServiceClass::kRecovery,
        [this, parent, shard_index, shard_id, op, buf, carry, slot, sources, shards, k, m, n,
         shard_size, replacement, remaining,
         disk_id = ref->second.disk](const Status& s, uint64_t) {
          if (op->finished) {
            return;
          }
          if (!s.ok()) {
            CompleteMigration(op, s);
            return;
          }
          if (--*remaining > 0) {
            return;
          }
          if (carry) {
            Status rs = RebuildShards(k, m, sources, {shard_index}, slot, shard_size);
            if (!rs.ok()) {
              CompleteMigration(op, rs);
              return;
            }
          }
          ChunkLayout* layout = FindLayout(parent);
          if (layout == nullptr || layout->tier != ChunkTier::kEc) {
            CompleteMigration(op, Aborted("layout changed"));
            return;
          }
          const uint64_t new_view = layout->view + 1;
          Status alloc = replacement->AllocateChunk(shard_id, new_view, disk_id);
          if (!alloc.ok()) {
            CompleteMigration(op, alloc);
            return;
          }
          op->allocated.emplace_back(replacement->id(), shard_id);
          WriteChunkPieces(
              replacement, shard_id, shard_size, slot(shard_index), buf,
              servers_[shards[sources[0]].server]->node(), qos::ServiceClass::kRecovery,
              [this, parent, shard_index, shard_id, op, replacement](const Status& ws) {
                if (op->finished) {
                  return;
                }
                if (!ws.ok()) {
                  CompleteMigration(op, ws);
                  return;
                }
                ChunkLayout* layout = FindLayout(parent);
                if (layout == nullptr || layout->tier != ChunkTier::kEc) {
                  CompleteMigration(op, Aborted("layout changed"));
                  return;
                }
                EcShardRef& sh = layout->ec_shards[shard_index];
                ChunkServer* old = servers_[sh.server];
                if (old != replacement && !old->crashed() && old->HasChunk(shard_id)) {
                  old->FreeChunk(shard_id);
                }
                sh = EcShardRef{replacement->id(), replacement->node(), shard_id};
                const uint64_t new_view = layout->view + 1;
                layout->view = new_view;
                ++recovery_stats_.view_changes;
                for (const EcShardRef& other : layout->ec_shards) {
                  if (!servers_[other.server]->crashed()) {
                    servers_[other.server]->SetView(other.shard_chunk, new_view);
                  }
                }
                op->allocated.clear();
                ++tier_stats_.shard_repairs;
                ++recovery_stats_.chunks_recovered;
                CompleteMigration(op, OkStatus());
              });
        });
  }
}

void Master::RepairEcShardRange(ChunkId shard, uint64_t offset, uint64_t length,
                                std::function<void(Status)> done) {
  auto fail = [this, &done](Status s) {
    sim_->After(0, [s = std::move(s), done = std::move(done)]() mutable { done(std::move(s)); });
  };
  auto it = ec_shards_.find(shard);
  if (it == ec_shards_.end()) {
    fail(NotFound("not an EC shard"));
    return;
  }
  ChunkLayout* layout = FindLayout(it->second.parent);
  if (layout == nullptr || layout->tier != ChunkTier::kEc) {
    fail(NotFound("stale shard"));
    return;
  }
  const int target = it->second.index;
  const int k = layout->ec_k;
  const int m = layout->ec_m;
  const int n = k + m;
  const std::vector<EcShardRef> shards = layout->ec_shards;
  ChunkServer* damaged = servers_[shards[target].server];
  if (damaged->crashed()) {
    fail(Unavailable("shard server down"));
    return;
  }
  std::vector<int> sources;
  for (int i = 0; i < n && static_cast<int>(sources.size()) < k; ++i) {
    if (i != target && !servers_[shards[i].server]->crashed()) {
      sources.push_back(i);
    }
  }
  if (static_cast<int>(sources.size()) < k) {
    fail(Unavailable("fewer than k shards alive"));
    return;
  }
  auto op = std::make_shared<MigrationOp>();
  op->chunk = 0;  // range repairs don't hold the parent's migration lock
  op->done = std::move(done);
  op->timeout_event = sim_->After(migration_timeout_, [this, op]() {
    op->timeout_event = 0;
    CompleteMigration(op, TimedOut("shard range repair timed out"));
  });
  auto run = [this, shard, offset, length, target, k, m, n, sources, shards, damaged, op]() {
    const bool carry = recovery_carries_data_;
    // RS reconstruction is positional: byte b of the lost shard needs byte b
    // of k others, so only [offset, offset+length) of each source is read.
    auto buf = carry
                   ? std::make_shared<std::vector<uint8_t>>(static_cast<uint64_t>(n) * length)
                   : nullptr;
    auto slot = [buf, length](int i) -> uint8_t* {
      return buf ? buf->data() + static_cast<uint64_t>(i) * length : nullptr;
    };
    auto remaining = std::make_shared<int>(k);
    for (int idx : sources) {
      servers_[shards[idx].server]->HandleRecoveryRead(
          shards[idx].shard_chunk, offset, length, slot(idx),
          [this, shard, offset, length, target, k, m, n, sources, shards, damaged, op, buf,
           carry, slot, remaining](const Status& s, uint64_t) {
            if (op->finished) {
              return;
            }
            if (!s.ok()) {
              CompleteMigration(op, s);
              return;
            }
            if (--*remaining > 0) {
              return;
            }
            if (carry) {
              Status rs = RebuildShards(k, m, sources, {target}, slot, length);
              if (!rs.ok()) {
                CompleteMigration(op, rs);
                return;
              }
            }
            uint64_t wire = net::WireBytes(net::MessageType::kRecoveryData, length);
            transport_->Send(
                shards[sources[0]].node, damaged->node(), wire,
                [this, shard, offset, length, target, damaged, op, buf, slot]() {
                  damaged->HandleRecoveryWrite(
                      shard, offset, length, slot(target),
                      [this, length, op, buf](const Status& ws) {
                        if (op->finished) {
                          return;
                        }
                        if (ws.ok()) {
                          recovery_stats_.bytes_transferred += length;
                          ++tier_stats_.shard_range_repairs;
                        }
                        CompleteMigration(op, ws);
                      },
                      qos::ServiceClass::kScrub);
                });
          },
          qos::ServiceClass::kScrub);
    }
  };
  if (admission_ != nullptr) {
    op->admission_source = servers_[shards[sources[0]].server]->id();
    admission_->Acquire(op->admission_source, scrub::RecoveryAdmission::Priority::kScrub,
                        [this, op, run]() {
                          if (op->finished) {
                            admission_->Release(op->admission_source);
                            return;
                          }
                          op->granted = true;
                          run();
                        });
  } else {
    run();
  }
}

std::vector<Master::TierChunkInfo> Master::ListTierChunks() const {
  std::vector<TierChunkInfo> out;
  out.reserve(chunk_refs_.size());
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      out.push_back(TierChunkInfo{layout.chunk, layout.tier == ChunkTier::kEc});
    }
  }
  return out;
}

uint64_t Master::PhysicalBytes() const {
  uint64_t total = 0;
  for (const auto& [disk_id, meta] : disks_) {
    for (const ChunkLayout& layout : meta.chunks) {
      if (layout.tier == ChunkTier::kEc) {
        total += layout.ec_shards.size() * layout.ec_shard_size;
      } else {
        total += layout.replicas.size() * meta.chunk_size;
      }
    }
  }
  return total;
}

uint64_t Master::LogicalBytes() const {
  uint64_t total = 0;
  for (const auto& [disk_id, meta] : disks_) {
    total += meta.chunks.size() * meta.chunk_size;
  }
  return total;
}

}  // namespace ursa::cluster
