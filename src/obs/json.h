// Deterministic JSON formatting primitives shared by every JSON writer:
// the obs artifacts (metrics, flight record, timelines, traces) and the
// runtime, cluster and sched reports. They live in odn_obs, the lowest
// library, so every layer serializes with the same byte contract.
#pragma once

#include <string>
#include <string_view>

namespace odn::obs {

// Shortest round-trip double formatting (std::to_chars without a
// precision); the obs artifacts print their doubles with it.
std::string json_shortest(double value);

// 17 significant digits, the reports' double format: round-trips every
// double and matches printf %.17g in the C locale byte for byte. Both
// formatters use std::to_chars, which never honors the process locale's
// decimal separator, so output stays byte-identical (and parseable) under
// any LC_NUMERIC.
std::string json_double(double value);

// JSON string-body escaping: quote and backslash, \n, \t, \r, and every
// other byte below 0x20 as \u00XX, so any input yields a valid string.
std::string json_escape(std::string_view text);

}  // namespace odn::obs
