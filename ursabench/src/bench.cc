#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace ursabench {

namespace {

uint64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Word i of a sector: distinct per (tag, lba) and cheap to regenerate.
inline uint64_t SectorBase(uint32_t tag, uint64_t lba) {
  return Mix((static_cast<uint64_t>(tag) << 40) ^ lba ^ 0x9e3779b97f4a7c15ULL);
}
constexpr uint64_t kWordStep = 0xd1b54a32d192ed03ULL;
constexpr uint64_t kWordsPerSector = ReadChecker::kSector / 8;

bool SectorMatches(uint32_t tag, uint64_t lba, const uint8_t* data) {
  if (tag == 0) {
    for (uint64_t i = 0; i < ReadChecker::kSector; ++i) {
      if (data[i] != 0) {
        return false;
      }
    }
    return true;
  }
  uint64_t word = SectorBase(tag, lba);
  for (uint64_t i = 0; i < kWordsPerSector; ++i, word += kWordStep) {
    uint64_t got = 0;
    std::memcpy(&got, data + i * 8, 8);
    if (got != word) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t RssKb() { return ProcStatusKb("VmRSS:"); }
uint64_t PeakRssKb() { return ProcStatusKb("VmHWM:"); }

template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}
template double Quantile(std::vector<int64_t>&, double);
template double Quantile(std::vector<uint32_t>&, double);

// ---- SpanLog ----

int SpanLog::Begin(const char* name, uint64_t req) {
  if (!enabled_) {
    return -1;
  }
  int64_t now = WallNs();
  if (in_step_ && step_span_ < 0) {
    step_span_ = static_cast<int32_t>(records_.size());
    records_.push_back({"sim.step", step_start_, 0, -1, 0});
    stack_.push_back(step_span_);
  }
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({name, now, 0, parent, req});
  stack_.push_back(static_cast<int32_t>(records_.size() - 1));
  return static_cast<int>(records_.size() - 1);
}

void SpanLog::End(int index) {
  if (index < 0) {
    return;
  }
  Record& r = records_[static_cast<size_t>(index)];
  r.end_ns = WallNs();
  if (in_step_ && r.parent == step_span_) {
    step_nested_ns_ += r.end_ns - r.start_ns;
  }
  stack_.pop_back();
}

void SpanLog::Mark(const char* name, int64_t start_ns, int64_t end_ns) {
  if (enabled_) {
    records_.push_back({name, start_ns, end_ns, -1, 0});
  }
}

void SpanLog::StepBegin(int64_t now_ns) {
  in_step_ = true;
  step_start_ = now_ns;
  step_span_ = -1;
  step_nested_ns_ = 0;
}

int64_t SpanLog::StepEnd(int64_t now_ns) {
  in_step_ = false;
  if (step_span_ >= 0) {
    records_[static_cast<size_t>(step_span_)].end_ns = now_ns;
    stack_.pop_back();
  }
  return step_nested_ns_;
}

int64_t SpanLog::TotalNs(const char* name) const {
  int64_t total = 0;
  for (const Record& r : records_) {
    if (std::strcmp(r.name, name) == 0) {
      total += r.end_ns - r.start_ns;
    }
  }
  return total;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) {
    origin = std::min(origin, r.start_ns);
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"req\":%llu}\n",
                 i, r.name, static_cast<long long>(r.start_ns - origin),
                 static_cast<long long>(r.end_ns - origin), r.parent,
                 static_cast<unsigned long long>(r.req));
  }
  std::fclose(f);
}

// ---- Payloads and checker ----

void FillPayload(uint32_t tag, uint64_t lba, uint64_t sectors, uint8_t* out) {
  for (uint64_t s = 0; s < sectors; ++s) {
    uint64_t word = SectorBase(tag, lba + s);
    for (uint64_t i = 0; i < kWordsPerSector; ++i, word += kWordStep) {
      std::memcpy(out + s * ReadChecker::kSector + i * 8, &word, 8);
    }
  }
}

ReadChecker::ReadChecker(uint64_t disk_bytes)
    : tag_(disk_bytes / kSector, 0),
      last_issue_(disk_bytes / kSector, 0),
      inflight_(disk_bytes / kSector, 0),
      conflict_(disk_bytes / kSector, 0) {}

void ReadChecker::BeginWrite(uint64_t offset, uint64_t length) {
  ++write_seq_;
  for (uint64_t s = offset / kSector, e = (offset + length) / kSector; s < e; ++s) {
    if (inflight_[s] > 0) {
      conflict_[s] = 1;
    }
    ++inflight_[s];
    last_issue_[s] = write_seq_;
  }
}

void ReadChecker::EndWrite(uint64_t offset, uint64_t length, uint32_t tag, bool ok) {
  for (uint64_t s = offset / kSector, e = (offset + length) / kSector; s < e; ++s) {
    tag_[s] = (ok && conflict_[s] == 0) ? tag : kUnknown;
    if (--inflight_[s] == 0) {
      conflict_[s] = 0;
    }
  }
}

ReadChecker::ReadToken ReadChecker::BeginRead(uint64_t offset, uint64_t length) const {
  ReadToken token;
  token.issue_seq = write_seq_;
  uint64_t first = offset / kSector;
  token.busy.resize(length / kSector);
  for (size_t i = 0; i < token.busy.size(); ++i) {
    token.busy[i] = inflight_[first + i] > 0 ? 1 : 0;
  }
  return token;
}

void ReadChecker::EndRead(uint64_t offset, uint64_t length, const uint8_t* data,
                          const ReadToken& token, uint64_t* checked, uint64_t* mismatched) const {
  uint64_t first = offset / kSector;
  for (uint64_t i = 0; i < length / kSector; ++i) {
    uint64_t s = first + i;
    if (token.busy[i] != 0 || last_issue_[s] > token.issue_seq || tag_[s] == kUnknown) {
      continue;
    }
    ++*checked;
    if (!SectorMatches(tag_[s], s, data + i * kSector)) {
      ++*mismatched;
    }
  }
}

// ---- Bench ----

void Bench::Build(const ursa::core::SystemProfile& profile) {
  ScopedSpan span(&spans_, "core.testbed_build");
  int64_t t0 = WallNs();
  bed_ = std::make_unique<ursa::core::TestBed>(profile);
  testbed_build_ns_ += WallNs() - t0;
  if (traced()) {
    bed_->EnableTracing(1);  // every request gets a stage breakdown
  }
}

ursa::client::VirtualDisk* Bench::OpenDisk(ursa::cluster::Machine* host, uint64_t size,
                                           int replication, int stripe_group) {
  ScopedSpan span(&spans_, "client.open");
  int64_t t0 = WallNs();
  ursa::client::VirtualDisk* disk =
      host == nullptr ? bed_->NewDisk(size, replication, stripe_group)
                      : bed_->NewDiskOn(host, size, replication, stripe_group);
  open_ns_ += WallNs() - t0;
  return disk;
}

Tenant* Bench::NewTenant(ursa::client::VirtualDisk* disk, int queue_depth, bool checked) {
  tenants_.push_back(std::make_unique<Tenant>(this, disk, queue_depth, checked));
  return tenants_.back().get();
}

double Bench::SimIops() const {
  double total = 0;
  for (const auto& t : tenants_) {
    total += t->MeasuredIops();
  }
  return total;
}

void Bench::StartMeasured() {
  measuring_ = true;
  rss_start_kb_ = RssKb();
  if (on_measure_start) {
    on_measure_start();
  }
  events_at_start_ = events_;
  measure_start_sim_ = sim().Now();
  measure_start_wall_ = WallNs();
}

void Bench::EndMeasured() {
  measure_end_wall_ = WallNs();
  measure_end_sim_ = sim().Now();
  events_at_end_ = events_;
  measuring_ = false;
  rss_end_kb_ = RssKb();
  if (on_measure_end) {
    on_measure_end();
  }
  spans_.Mark("phase.measured", measure_start_wall_, measure_end_wall_);
}

void Bench::Drive(const bool* done, Nanos sim_limit) {
  ursa::sim::Simulator& s = sim();
  constexpr Nanos kSlice = ursa::msec(1);
  while (!*done) {
    if (s.Now() > sim_limit || s.idle()) {
      std::fprintf(stderr, "run stalled at simulated t=%.3f s (%s)\n", ursa::ToSec(s.Now()),
                   s.idle() ? "event queue empty" : "time limit");
      std::exit(3);
    }
    if (!traced()) {
      // The event count of each slice lands before the next check, so the
      // measured window's count is exact to within one slice.
      events_ += s.RunUntil(std::min(s.Now() + kSlice, sim_limit + 1));
      continue;
    }
    int64_t t0 = WallNs();
    spans_.StepBegin(t0);
    ++events_;
    s.Step(INT64_MAX);
    int64_t t1 = WallNs();
    int64_t nested = spans_.StepEnd(t1);
    if (measuring_) {
      int64_t self = t1 - t0 - nested;
      event_self_ns_.push_back(static_cast<uint32_t>(std::max<int64_t>(self, 0)));
      loop_self_ns_ += self;
      pending_max_ = std::max(pending_max_, s.pending_events());
    }
  }
}

// ---- Tenant ----

Tenant::Tenant(Bench* bench, ursa::client::VirtualDisk* disk, int queue_depth, bool checked)
    : bench_(bench),
      disk_(disk),
      queue_depth_(queue_depth),
      checker_(checked ? std::make_unique<ReadChecker>(disk->size()) : nullptr) {}

double Tenant::MeasuredIops() const {
  if (measured_ops_ == 0 || measured_last_ <= measured_first_) {
    return 0;
  }
  return static_cast<double>(measured_ops_) / ursa::ToSec(measured_last_ - measured_first_);
}

void Tenant::RecordCompletion(Nanos start) {
  if (measured_first_ < 0 || start < measured_first_) {
    measured_first_ = start;
  }
  measured_last_ = bench_->sim().Now();
  ++measured_ops_;
}

void Tenant::Run(const std::vector<Op>* ops, size_t begin, size_t end, bool record,
                 std::function<void()> drained) {
  ops_ = ops;
  next_ = begin;
  end_ = end;
  record_ = record;
  drained_ = std::move(drained);
  if (next_ >= end_) {
    auto drained = std::move(drained_);
    drained();
    return;
  }
  for (int i = 0; i < queue_depth_ && next_ < end_; ++i) {
    IssueNext();
  }
}

void Tenant::IssueNext() {
  const Op& op = (*ops_)[next_++];
  ++outstanding_;
  Issue(op, record_, [this]() {
    --outstanding_;
    if (next_ < end_) {
      IssueNext();
    } else if (outstanding_ == 0) {
      // Moved out first: `drained` may start the next Run on this tenant.
      auto drained = std::move(drained_);
      drained();
    }
  });
}

void Tenant::Issue(const Op& op, bool record, std::function<void()> done) {
  Bench* b = bench_;
  SpanLog* spans = &b->spans();
  OpStats* stats = &b->ops();
  ursa::sim::Simulator* sim = &b->sim();
  ReadChecker* checker = checker_.get();
  uint64_t req = b->NextRequestId();
  Nanos start = sim->Now();
  ++stats->attempted;

  if (op.is_write) {
    ursa::BufferView payload;
    uint32_t tag = 0;
    if (checker != nullptr) {
      ScopedSpan gen(spans, "bench.gen", req);
      tag = b->NextWriteTag();
      ursa::Buffer buf = ursa::Buffer::Allocate(op.length);
      FillPayload(tag, op.offset / ReadChecker::kSector, op.length / ReadChecker::kSector,
                  buf.data());
      payload = buf.View();
      checker->BeginWrite(op.offset, op.length);
    }
    auto cb = [this, spans, stats, sim, checker, op, tag, req, start, record,
               done = std::move(done)](const ursa::Status& s) {
      ScopedSpan span(spans, "bench.complete", req);
      if (checker != nullptr) {
        checker->EndWrite(op.offset, op.length, tag, s.ok());
      }
      if (!s.ok()) {
        ++stats->failed;
      } else if (record) {
        RecordCompletion(start);
        stats->write_ns.push_back(sim->Now() - start);
        ++stats->measured_ops;
        stats->measured_write_bytes += op.length;
      }
      done();
    };
    ScopedSpan span(spans, "client.submit", req);
    int64_t t0 = b->traced() ? WallNs() : 0;
    disk_->Write(op.offset, op.length, std::move(payload), std::move(cb));
    if (b->traced()) {
      b->RecordSubmit(WallNs() - t0);
    }
    return;
  }

  struct ReadCtx {
    std::unique_ptr<uint8_t[]> buf;
    ReadChecker::ReadToken token;
  };
  std::shared_ptr<ReadCtx> ctx;
  if (checker != nullptr) {
    ctx = std::make_shared<ReadCtx>();
    ctx->buf.reset(new uint8_t[op.length]);
    ctx->token = checker->BeginRead(op.offset, op.length);
  }
  auto cb = [this, spans, stats, sim, checker, ctx, op, req, start, record,
             done = std::move(done)](const ursa::Status& s) {
    ScopedSpan span(spans, "bench.complete", req);
    bool ok = s.ok();
    if (ok && checker != nullptr) {
      ScopedSpan check(spans, "bench.check", req);
      uint64_t bad = stats->mismatched_sectors;
      checker->EndRead(op.offset, op.length, ctx->buf.get(), ctx->token, &stats->checked_sectors,
                       &stats->mismatched_sectors);
      ok = stats->mismatched_sectors == bad;
    }
    if (!ok) {
      ++stats->failed;
    } else if (record) {
      RecordCompletion(start);
      stats->read_ns.push_back(sim->Now() - start);
      ++stats->measured_ops;
    }
    done();
  };
  ScopedSpan span(spans, "client.submit", req);
  int64_t t0 = b->traced() ? WallNs() : 0;
  disk_->Read(op.offset, op.length, ctx ? ctx->buf.get() : nullptr, std::move(cb));
  if (b->traced()) {
    b->RecordSubmit(WallNs() - t0);
  }
}

}  // namespace ursabench
