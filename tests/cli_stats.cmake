# Span-rollup check, run as the `cli_stats` ctest: `--stats json` reports
# phase times as span.<name>.* rows from the span rollup, and the deleted
# hand timers and the deleted diag.* counters stay gone.  A trace file that
# cannot be written fails the run with a one-line na[obs] message on stderr.
#
# Usage: cmake -DNET2ART=<exe> -DREGEN=<exe> -DOUT_DIR=<dir> -P cli_stats.cmake

set(failures "")

function(run_stats out_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_QUIET
                  TIMEOUT 120)
  if(NOT rc STREQUAL "0")
    string(REPLACE ";" " " cmd "${ARGN}")
    list(APPEND failures "${cmd} exited ${rc}")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Appends to `failures` unless `text` contains (or, with NOT, lacks) `key`.
function(expect_key text key)
  string(FIND "${text}" "\"${key}" at)
  if(at EQUAL -1)
    list(APPEND failures "missing \"${key}\"")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()
function(expect_no_key text key)
  string(FIND "${text}" "\"${key}" at)
  if(NOT at EQUAL -1)
    list(APPEND failures "unexpected \"${key}\"")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

file(MAKE_DIRECTORY "${OUT_DIR}")
run_stats(net2art_out "${NET2ART}" --synth grid:4 --stats json
          -o "${OUT_DIR}/cli_stats")
run_stats(regen_out "${REGEN}" --stats json)
# A trace path in a missing directory: exit 1, and say why on stderr.
execute_process(COMMAND "${NET2ART}" --synth grid:4
                        --trace "${OUT_DIR}/cli_stats_missing/t.json"
                        --stats json -o "${OUT_DIR}/cli_stats"
                RESULT_VARIABLE bad_rc
                OUTPUT_VARIABLE bad_out
                ERROR_VARIABLE bad_err
                TIMEOUT 120)
if(NOT bad_rc STREQUAL "1")
  list(APPEND failures "--trace into a missing directory exited ${bad_rc}, not 1")
endif()
string(FIND "${bad_err}" "na[obs] cannot write trace file" at)
if(at EQUAL -1)
  list(APPEND failures "no 'na[obs] cannot write trace file' on stderr: ${bad_err}")
endif()

expect_no_key("${net2art_out}" "generate.")
expect_no_key("${regen_out}" "regen.validate")
expect_no_key("${net2art_out}" "diag.")
expect_no_key("${regen_out}" "diag.")
expect_no_key("${bad_out}" "diag.")
expect_key("${net2art_out}" "span.place.total_ms")
expect_key("${net2art_out}" "span.route.total_ms")
expect_key("${regen_out}" "span.regen.validate.count")

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "cli_stats:\n  ${failures}")
endif()
message(STATUS "cli_stats: --stats json carries the span rollup")
