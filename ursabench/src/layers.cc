#include "layers.h"

#include <algorithm>
#include <cmath>

namespace ursabench {

namespace {

constexpr ursa::Nanos kGaugeInterval = ursa::msec(5);
constexpr double kMiBf = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Gap between the per-request stage sum (critical path, device term
// max(primary, journal)) and the end-to-end latency, at quantile q.
double ReconError(const ursa::obs::StageBreakdown& b, double q) {
  double e2e = static_cast<double>(b.end_to_end_us.Percentile(q));
  double sum = static_cast<double>(b.stage_sum_us.Percentile(q));
  return e2e > 0 ? std::abs(sum - e2e) / e2e : 0;
}

}  // namespace

LayerProbe::Snapshot LayerProbe::Take() const {
  Snapshot s;
  ursa::cluster::Cluster& cl = bench_->bed().cluster();
  for (const auto& sample : cl.metrics().Snapshot()) {
    if (sample.kind != ursa::obs::MetricsRegistry::Kind::kHistogram) {
      s.registry[sample.name] += sample.value;
    }
  }
  for (size_t m = 0; m < cl.num_machines(); ++m) {
    ursa::cluster::Machine& machine = cl.machine(m);
    for (int i = 0; i < machine.num_ssds(); ++i) {
      const auto& st = machine.ssd(i).stats();
      s.ssd_ops += st.reads + st.writes;
      s.device_bytes_written += st.bytes_written;
    }
    for (int i = 0; i < machine.num_hdds(); ++i) {
      const auto& st = machine.hdd(i).stats();
      s.hdd_ops += st.reads + st.writes;
      s.device_bytes_written += st.bytes_written;
    }
  }
  s.cpu_busy = cl.TotalCpuBusyTime();
  return s;
}

void LayerProbe::SampleGauges() {
  if (!sampling_) {
    return;
  }
  double backlog = 0;
  for (ursa::journal::JournalManager* jm : bench_->bed().cluster().journal_managers()) {
    backlog += static_cast<double>(jm->BacklogBytes());
    index_segments_max_ = std::max(index_segments_max_, static_cast<double>(jm->IndexSegments()));
  }
  backlog_bytes_max_ = std::max(backlog_bytes_max_, backlog);
  bench_->sim().After(kGaugeInterval, [this]() { SampleGauges(); });
}

void LayerProbe::OnMeasureStart() {
  start_ = Take();
  bench_->bed().tracer().Reset();
  sampling_ = true;
  SampleGauges();
}

void LayerProbe::OnMeasureEnd() {
  const ursa::obs::Tracer& tracer = bench_->bed().tracer();
  for (int w = 0; w < 2; ++w) {
    const ursa::obs::StageBreakdown& b = w == 0 ? tracer.reads() : tracer.writes();
    std::string prefix = w == 0 ? "stage.read." : "stage.write.";
    for (int i = 0; i < ursa::obs::kNumStages; ++i) {
      std::string stage = ursa::obs::StageName(static_cast<ursa::obs::Stage>(i));
      stages_.Add(prefix + stage + ".p50_us",
                  static_cast<double>(b.stage_us[i].Percentile(50)), "us");
      stages_.Add(prefix + stage + ".p99_us",
                  static_cast<double>(b.stage_us[i].Percentile(99)), "us");
    }
    stages_.Add(prefix + "recon_err_p50", ReconError(b, 50), "fraction");
    stages_.Add(prefix + "recon_err_p99", ReconError(b, 99), "fraction");
    // The tracer's own check: sum of per-stage medians against the median.
    stages_.Add(prefix + "median_sum_err", b.ReconciliationError(), "fraction");
    stages_.Add(prefix + "spans", static_cast<double>(b.end_to_end_us.count()), "count");
  }
}

void LayerProbe::Finish() {
  sampling_ = false;
  end_ = Take();
  counts_.clear();
  for (const auto& [name, value] : end_.registry) {
    auto it = start_.registry.find(name);
    counts_[name] = value - (it == start_.registry.end() ? 0 : it->second);
  }
  counts_["bench.ssd_ops"] = static_cast<double>(end_.ssd_ops - start_.ssd_ops);
  counts_["bench.hdd_ops"] = static_cast<double>(end_.hdd_ops - start_.hdd_ops);
  counts_["bench.device_bytes_written"] =
      static_cast<double>(end_.device_bytes_written - start_.device_bytes_written);
  counts_["bench.cpu_busy_ns"] = static_cast<double>(end_.cpu_busy - start_.cpu_busy);
  counts_["bench.journal_backlog_bytes_max"] = backlog_bytes_max_;
  counts_["bench.index_segments_max"] = index_segments_max_;
}

MetricList LayerProbe::LayerMetrics() const {
  Bench& b = *bench_;
  auto count = [this](const char* name) {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  };
  const double ios = static_cast<double>(b.ops().measured_ops);
  const double user_write_bytes = static_cast<double>(b.ops().measured_write_bytes);
  MetricList m;

  // Wall time of the benchmark's own calls into each layer.
  m.Add("core.testbed_build_s", static_cast<double>(b.testbed_build_ns()) / 1e9, "s");
  m.Add("client.open_s", static_cast<double>(b.open_ns()) / 1e9, "s");
  m.Add("bench.gen_s", static_cast<double>(b.spans().TotalNs("bench.gen")) / 1e9, "s");
  m.Add("bench.check_s", static_cast<double>(b.spans().TotalNs("bench.check")) / 1e9, "s");
  m.Add("client.submit_ns_p50", Quantile(b.submit_ns(), 0.50), "ns");
  m.Add("client.submit_ns_p99", Quantile(b.submit_ns(), 0.99), "ns");
  m.Add("sim.loop_self_s", static_cast<double>(b.loop_self_ns()) / 1e9, "s");
  m.Add("sim.events_per_io", Ratio(static_cast<double>(b.events_measured()), ios), "events/io");
  m.Add("sim.event_ns_p50", Quantile(b.event_self_ns(), 0.50), "ns");
  m.Add("sim.event_ns_p99", Quantile(b.event_self_ns(), 0.99), "ns");
  m.Add("sim.pending_max", static_cast<double>(b.pending_max()), "count");

  // Simulated time per stage, from obs::Tracer.
  m.items.insert(m.items.end(), stages_.items.begin(), stages_.items.end());

  // Counts over the measured phase and the convergence after it.
  const double msgs = count("net.messages_delivered");
  m.Add("net.msgs_per_io", Ratio(msgs, ios), "msgs/io");
  m.Add("net.bytes_per_io", Ratio(count("net.bytes_sent"), ios), "B/io");
  m.Add("net.coalesced_frac", Ratio(count("net.coalesced_messages"), msgs), "fraction");
  m.Add("server.cpu_us_per_io", Ratio(count("bench.cpu_busy_ns") / 1e3, ios), "us/io");
  const double journaled = count("journal.journaled_writes");
  const double journal_writes =
      journaled + count("journal.bypassed_writes") + count("journal.direct_fallback_writes");
  m.Add("journal.journaled_frac", Ratio(journaled, journal_writes), "fraction");
  m.Add("journal.merged_frac", Ratio(count("journal.merged_records"), journaled), "fraction");
  m.Add("journal.replayed_bytes_per_user_byte",
        Ratio(count("journal.replayed_bytes"), user_write_bytes), "ratio");
  m.Add("journal.backlog_mb_max", count("bench.journal_backlog_bytes_max") / kMiBf, "MiB");
  m.Add("journal.expansions", count("journal.expansions"), "count");
  m.Add("index.segments_max", count("bench.index_segments_max"), "count");
  m.Add("storage.ssd_ops_per_io", Ratio(count("bench.ssd_ops"), ios), "ops/io");
  m.Add("storage.hdd_ops_per_io", Ratio(count("bench.hdd_ops"), ios), "ops/io");
  m.Add("storage.device_write_amp", Ratio(count("bench.device_bytes_written"), user_write_bytes),
        "ratio");
  m.Add("client.retries", count("client.retries"), "count");
  m.Add("client.timeouts", count("client.timeouts"), "count");
  m.Add("client.ec_degraded_reads", count("client.ec_degraded_reads"), "count");

  ursa::Histogram admission;
  for (const auto& sample : b.bed().cluster().metrics().Snapshot()) {
    if (sample.name == "qos.admission_latency_us" && sample.hist != nullptr) {
      admission.Merge(*sample.hist);
    }
  }
  m.Add("qos.admission_p99_us", static_cast<double>(admission.Percentile(99)), "us");
  m.Add("qos.throttle_deferrals", count("qos.throttle_deferrals"), "count");
  m.Add("qos.preemptions", count("qos.preemptions"), "count");
  m.Add("master.chunks_recovered", count("master.chunks_recovered"), "count");
  m.Add("master.recovery_mb", count("master.recovery_bytes_transferred") / kMiBf, "MiB");
  m.Add("admission.waits", count("admission.waits"), "count");
  // A gauge of the run's peak, not a difference.
  auto peak = end_.registry.find("admission.peak_in_flight");
  m.Add("admission.peak_in_flight", peak == end_.registry.end() ? 0.0 : peak->second, "count");
  m.Add("scrub.mb_read", count("scrub.bytes_read") / kMiBf, "MiB");
  m.Add("tier.demotions", count("tier.master_demotions"), "count");
  m.Add("tier.write_promotions", count("tier.write_promotions"), "count");
  m.Add("tier.ec_mb_encoded", count("tier.ec_bytes_encoded") / kMiBf, "MiB");
  return m;
}

}  // namespace ursabench
