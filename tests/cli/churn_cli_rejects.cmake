# The bench_churn command-line contract: every malformed input exits with
# a non-zero status (not a crash) and names the offending flag or
# variable in its message.
#
# Invoked by add_test as:
#   cmake -DBENCH=<bench_churn> -P churn_cli_rejects.cmake
#
# Each row is "<text the output must contain>|<environment>|<arguments>".
cmake_policy(SET CMP0007 NEW)  # keep the empty environment field
if(NOT BENCH)
  message(FATAL_ERROR "BENCH is required")
endif()

set(rows
  "--seed||--seed abc"
  "--horizon||--horizon nan"
  "--horizon||--horizon 30x"
  "--cells||--cells 0"
  "--cells||--cells -1"
  "--tightness||--tightness inf"
  "--max-victims||--max-victims -1"
  "--frobnicate||--frobnicate"
  "--horizon||--seed 7 --horizon"
  "--alerts-out||--alerts-out alerts.json"
  "--flight-out||--tightness 1 --tightness 2 --flight-out flight.json"
  "ODN_THREADS|ODN_THREADS=abc|--seed 7 --horizon 5"
)

set(failures "")
foreach(row IN LISTS rows)
  string(REPLACE "|" ";" fields "${row}")
  list(GET fields 0 expect)
  list(GET fields 1 env)
  list(GET fields 2 args)
  separate_arguments(args NATIVE_COMMAND "${args}")
  if(env STREQUAL "")
    set(env --unset=ODN_THREADS)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=ODN_TRACE --unset=ODN_METRICS
            --unset=ODN_FLIGHT ${env} ${BENCH} ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  # A signal or abort reports a string here, not a number.
  if(NOT result MATCHES "^[1-9][0-9]*$")
    string(APPEND failures "\n  '${row}': exit '${result}', want a non-zero status")
  elseif(NOT out MATCHES "${expect}")
    string(APPEND failures "\n  '${row}': output does not name '${expect}':\n${out}")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "bench_churn accepted or crashed on bad input:${failures}")
endif()
