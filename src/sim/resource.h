// FIFO multi-server resource with utilization accounting.
//
// Models contended capacity: a machine's CPU (`servers` = cores), a NIC
// direction (`servers` = 1, service time = serialization delay), or an SSD
// channel group. Jobs acquire a server for a fixed service time and run a
// completion callback when done. Destroying a Resource releases the
// callbacks of its queued and in-service jobs; the simulator must not run
// their pending events afterwards. Utilization feeds the Fig. 7 efficiency
// numbers (IOPS per core = throughput / busy-cores).
#ifndef URSA_SIM_RESOURCE_H_
#define URSA_SIM_RESOURCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/common/slot_table.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace ursa::sim {

class Resource {
 public:
  Resource(Simulator* sim, std::string name, int servers);

  // Enqueues a job needing `service_time` of one server; `done` runs at
  // completion. FIFO across all servers.
  void Submit(Nanos service_time, EventFn done);

  int servers() const { return servers_; }
  int busy() const { return busy_; }
  size_t queue_depth() const { return queue_.size(); }
  const std::string& name() const { return name_; }

  // Total busy server-time accumulated since construction (or ResetStats).
  Nanos busy_time() const { return busy_time_; }
  uint64_t completed_jobs() const { return completed_jobs_; }

  // Mean number of busy servers over [reset, now].
  double Utilization() const;

  void ResetStats();

 private:
  struct Job {
    Nanos service_time;
    EventFn done;
  };

  void StartNext();
  void FinishJob(uint32_t slot);

  Simulator* sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  std::deque<Job> queue_;
  // Completions of the jobs in service. Their events capture only
  // {this, slot}: a closure holding the 72-byte EventFn itself would not fit
  // InlineFn's inline buffer.
  SlotTable<EventFn> in_service_;
  Nanos busy_time_ = 0;
  uint64_t completed_jobs_ = 0;
  Nanos stats_epoch_ = 0;
};

}  // namespace ursa::sim

#endif  // URSA_SIM_RESOURCE_H_
