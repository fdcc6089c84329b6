#include "src/base/cpu_model.h"

#include <algorithm>
#include <functional>

namespace sud {

CoreSchedule ScheduleOnCores(const std::vector<uint64_t>& queue_kernel_ns,
                             const std::vector<uint64_t>& queue_driver_ns, double serial_ns,
                             double min_wall_ns, uint32_t cores) {
  if (cores == 0) {
    cores = 1;
  }
  std::vector<double> units;
  units.reserve(queue_kernel_ns.size() + queue_driver_ns.size() + 1);
  if (serial_ns > 0) {
    units.push_back(serial_ns);
  }
  for (uint64_t nanos : queue_kernel_ns) {
    if (nanos > 0) {
      units.push_back(static_cast<double>(nanos));
    }
  }
  for (uint64_t nanos : queue_driver_ns) {
    if (nanos > 0) {
      units.push_back(static_cast<double>(nanos));
    }
  }
  // Greedy LPT: biggest unit first onto the least-loaded core. Within 4/3 of
  // the optimal makespan, and exact in the cases the benches hit (units per
  // core <= 2 with one dominant unit).
  std::sort(units.begin(), units.end(), std::greater<double>());

  CoreSchedule schedule;
  schedule.core_busy_ns.assign(cores, 0.0);
  for (double unit : units) {
    size_t least = 0;
    for (size_t core = 1; core < schedule.core_busy_ns.size(); ++core) {
      if (schedule.core_busy_ns[core] < schedule.core_busy_ns[least]) {
        least = core;
      }
    }
    schedule.core_busy_ns[least] += unit;
    schedule.busy_ns += unit;
  }
  for (double load : schedule.core_busy_ns) {
    schedule.makespan_ns = std::max(schedule.makespan_ns, load);
  }
  schedule.wall_ns = std::max(min_wall_ns, schedule.makespan_ns);
  if (schedule.wall_ns > 0) {
    schedule.cpu_pct = 100.0 * schedule.busy_ns / (cores * schedule.wall_ns);
  }
  return schedule;
}

CoreSchedule ScheduleOnCoresWithTotal(const std::vector<uint64_t>& queue_kernel_ns,
                                      const std::vector<uint64_t>& queue_driver_ns,
                                      double total_busy_ns, double min_wall_ns, uint32_t cores) {
  double shard_ns = 0;
  for (uint64_t nanos : queue_kernel_ns) {
    shard_ns += static_cast<double>(nanos);
  }
  for (uint64_t nanos : queue_driver_ns) {
    shard_ns += static_cast<double>(nanos);
  }
  return ScheduleOnCores(queue_kernel_ns, queue_driver_ns, total_busy_ns - shard_ns, min_wall_ns,
                         cores);
}

}  // namespace sud
