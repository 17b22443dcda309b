#include "src/sim/resource.h"

#include <utility>

#include "src/common/logging.h"

namespace ursa::sim {

Resource::Resource(Simulator* sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers) {
  URSA_CHECK_GT(servers, 0);
  stats_epoch_ = sim_->Now();
}

void Resource::Submit(Nanos service_time, EventFn done) {
  URSA_CHECK_GE(service_time, 0);
  queue_.push_back(Job{service_time, std::move(done)});
  StartNext();
}

void Resource::StartNext() {
  while (busy_ < servers_ && !queue_.empty()) {
    Job& job = queue_.front();
    ++busy_;
    busy_time_ += job.service_time;
    const Nanos service_time = job.service_time;
    const uint32_t slot = in_service_.Put(std::move(job.done));
    queue_.pop_front();
    sim_->After(service_time, [this, slot]() { FinishJob(slot); });
  }
}

void Resource::FinishJob(uint32_t slot) {
  EventFn done = in_service_.Take(slot);
  --busy_;
  ++completed_jobs_;
  // Start successors before running the completion so the resource never
  // idles across a completion callback that immediately resubmits.
  StartNext();
  if (done) {
    done();
  }
}

double Resource::Utilization() const {
  Nanos elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

void Resource::ResetStats() {
  busy_time_ = 0;
  completed_jobs_ = 0;
  stats_epoch_ = sim_->Now();
}

}  // namespace ursa::sim
