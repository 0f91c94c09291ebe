#include "sched/sched_stats.h"

#include <ostream>

#include "obs/json.h"

namespace odn::sched {

void SchedStats::write_json(std::ostream& out,
                            const std::string& indent) const {
  out << "{\n";
  out << indent << "  \"ladder\": {\n";
  out << indent << "    \"admitted_plain\": " << admitted_plain << ",\n";
  out << indent << "    \"admitted_by_downgrade\": " << admitted_by_downgrade
      << ",\n";
  out << indent << "    \"admitted_by_preemption\": "
      << admitted_by_preemption << ",\n";
  out << indent << "    \"rejected\": " << ladder_rejected << ",\n";
  out << indent << "    \"probes\": " << probes << ",\n";
  out << indent << "    \"rollbacks\": " << rollbacks << "\n";
  out << indent << "  },\n";
  out << indent << "  \"victims\": {\n";
  out << indent << "    \"downgrades\": " << downgrades << ",\n";
  out << indent << "    \"preemptions\": " << preemptions << ",\n";
  out << indent << "    \"preempted_readmitted\": " << preempted_readmitted
      << ",\n";
  out << indent << "    \"preempted_rejected\": " << preempted_rejected
      << ",\n";
  out << indent << "    \"preempted_departed\": " << preempted_departed
      << ",\n";
  out << indent << "    \"preempted_pending_at_end\": "
      << preempted_pending_at_end << ",\n";
  out << indent << "    \"readmission_retries\": " << readmission_retries
      << ",\n";
  out << indent << "    \"fault_displacements\": " << fault_displacements
      << "\n";
  out << indent << "  },\n";
  out << indent << "  \"deadline_buckets\": {\n";
  out << indent << "    \"met\": " << met << ",\n";
  out << indent << "    \"missed\": " << missed << ",\n";
  out << indent << "    \"preempted\": " << preempted << ",\n";
  out << indent << "    \"downgraded\": " << downgraded << ",\n";
  out << indent << "    \"rejected\": " << rejected << "\n";
  out << indent << "  },\n";
  out << indent << "  \"timeline\": [\n";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const SchedEpochBuckets& e = timeline[i];
    out << indent << "    {\"t_s\": " << obs::json_double(e.time_s)
        << ", \"met\": " << e.met << ", \"missed\": " << e.missed
        << ", \"preempted\": " << e.preempted
        << ", \"downgraded\": " << e.downgraded
        << ", \"rejected\": " << e.rejected
        << ", \"serving\": " << e.serving << ", \"pending\": " << e.pending
        << "}" << (i + 1 < timeline.size() ? "," : "") << "\n";
  }
  out << indent << "  ]\n";
  out << indent << "}";
}

}  // namespace odn::sched
