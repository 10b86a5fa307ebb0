# Span-rollup check, run as the `cli_stats` ctest: `--stats json` reports
# phase times as span.<name>.* rows from the span rollup, and the deleted
# hand timers stay gone.  In a -DNA_TRACE=OFF build nothing is recorded,
# so no span row may appear.
#
# Usage: cmake -DNET2ART=<exe> -DREGEN=<exe> -DTRACE=<ON|OFF>
#              -DOUT_DIR=<dir> -P cli_stats.cmake

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
expect_no_key("${net2art_out}" "generate.")
expect_no_key("${regen_out}" "regen.validate")
if(TRACE)
  expect_key("${net2art_out}" "span.place.total_ms")
  expect_key("${net2art_out}" "span.route.total_ms")
  expect_key("${regen_out}" "span.regen.validate.count")
else()
  expect_no_key("${net2art_out}" "span.")
  expect_no_key("${regen_out}" "span.")
endif()

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "cli_stats:\n  ${failures}")
endif()
message(STATUS "cli_stats: --stats json carries the span rollup")
