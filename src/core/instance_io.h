// DOT instance persistence: a line-oriented text format that round-trips
// a complete problem — catalog blocks, tasks, quality ladders, path
// options, resources, radio model and alpha. Lets characterized scenarios
// be archived, diffed and shared between runs/machines (the "DNN
// availability" input of the Fig. 4 controller workflow).
//
// Format sketch (one record per line, names last so they may contain
// spaces):
//   ODN-INSTANCE 1
//   name <instance name>
//   alpha <a>
//   resources <C> <Ct> <M> <R>
//   radio fixed <bits_per_rb_per_s>        | radio lte
//   blocks <count>
//   block <kind> <c_s> <mu_bytes> <ct_s> <name>
//   tasks <count>
//   task <p> <lambda> <A> <L> <snr> <n_qualities> <n_options> <name>
//   quality <bits> <accuracy_factor>
//   option <quality_index> <accuracy> <n_blocks> <b...> <name>
// Records follow the shared ODN-* grammar of util/record_reader.h.
#pragma once

#include <iosfwd>
#include <string>

#include "core/dot_problem.h"

namespace odn::core {

void write_instance(const DotInstance& instance, std::ostream& out);
void write_instance(const DotInstance& instance, const std::string& path);

// Reads and finalizes an instance; throws std::runtime_error on malformed
// input with the offending line number.
DotInstance read_instance(std::istream& in);
DotInstance read_instance_file(const std::string& path);

}  // namespace odn::core
