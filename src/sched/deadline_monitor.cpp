#include "sched/deadline_monitor.h"

namespace odn::sched {

const char* bucket_name(DeadlineBucket bucket) noexcept {
  switch (bucket) {
    case DeadlineBucket::kMet: return "met";
    case DeadlineBucket::kMissed: return "missed";
    case DeadlineBucket::kPreempted: return "preempted";
    case DeadlineBucket::kDowngraded: return "downgraded";
    case DeadlineBucket::kRejected: return "rejected";
  }
  return "unknown";
}

DeadlineBucket classify(const DeadlineHistory& history,
                        bool serving) noexcept {
  if (!history.first_admitted_s) return DeadlineBucket::kRejected;
  if (!serving && !history.departed_serving) return DeadlineBucket::kPreempted;
  if (history.deadline_s > 0.0 &&
      *history.first_admitted_s > history.arrival_s + history.deadline_s)
    return DeadlineBucket::kMissed;
  if (history.ever_downgraded || history.ever_preempted)
    return DeadlineBucket::kDowngraded;
  return DeadlineBucket::kMet;
}

}  // namespace odn::sched
