# CLI exit-code check, run as the `cli_exit_codes` ctest: every binary that
# parses flags exits 2 on an unknown flag or a bad flag value, never 0 or
# 1.  The daemon flags and --stats value that were removed along with the
# slow-request log and the Prometheus exposition, the daemon's removed
# in-flight window and watchdog interval flags, and regen's removed
# --validate flag must stay rejected, as must a malformed --synth spec,
# a '+'-signed number, the placement flags life_game does not take and a
# --flight-dump path without the --flight-recorder that would fill it.
# A binary that cannot write an output exits 1 and names the file.
#
# Usage: cmake -DEUREKA=<exe> -DPABLO=<exe> -DNET2ART=<exe> -DREGEN=<exe>
#              -DLIFE_GAME=<exe> -DNA_SERVE=<exe> -P cli_exit_codes.cmake

set(failures "")

function(expect_exit_2)
  # The timeout keeps a binary that wrongly accepts its flags (na_serve
  # would start serving) from hanging the suite.
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET
                  TIMEOUT 30)
  if(NOT rc STREQUAL "2")
    string(REPLACE ";" " " cmd "${ARGN}")
    list(APPEND failures "${cmd} -> ${rc}")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

foreach(exe IN ITEMS "${EUREKA}" "${PABLO}" "${NET2ART}" "${REGEN}"
                     "${LIFE_GAME}" "${NA_SERVE}")
  expect_exit_2("${exe}" --bogus)
endforeach()
expect_exit_2("${NA_SERVE}" --slow-ms 5)
expect_exit_2("${NA_SERVE}" --prom-file x)
expect_exit_2("${NA_SERVE}" --max-in-flight 8)
expect_exit_2("${NA_SERVE}" --watchdog-ms 5)
expect_exit_2("${REGEN}" --validate full)
expect_exit_2("${REGEN}" --validate off)
expect_exit_2("${REGEN}" --validate region)
# A runnable input, so only the --stats value can make net2art fail; it
# would otherwise write its diagram under the ctest working directory.
expect_exit_2("${NET2ART}" --synth grid:4 --stats prom
              -o "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes")
expect_exit_2("${NET2ART}" --synth grid:12x
              -o "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes")
expect_exit_2("${NET2ART}" --synth ring:12
              -o "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes")
expect_exit_2("${NA_SERVE}" --threads +4)
expect_exit_2("${NA_SERVE}" --flight-dump x.json)
expect_exit_2("${LIFE_GAME}" out -p 5)
expect_exit_2("${LIFE_GAME}" out -b 2)

set(write_failures "")

function(expect_exit_1_naming file)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 120)
  string(FIND "${err}" "${file}" at)
  if(NOT rc STREQUAL "1" OR at EQUAL -1)
    string(REPLACE ";" " " cmd "${ARGN}")
    list(APPEND write_failures "${cmd} -> ${rc}: ${err}")
    set(write_failures "${write_failures}" PARENT_SCOPE)
  endif()
endfunction()

set(missing "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_missing")
file(REMOVE_RECURSE "${missing}")
expect_exit_1_naming("${missing}/x.svg"
                     "${NET2ART}" --synth grid:4 -o "${missing}/x")
expect_exit_1_naming("${missing}/life_hand.svg" "${LIFE_GAME}" "${missing}")

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "cli_exit_codes: expected exit code 2 from\n  ${failures}")
endif()
if(write_failures)
  string(REPLACE ";" "\n  " write_failures "${write_failures}")
  message(FATAL_ERROR
          "cli_exit_codes: expected exit code 1 naming the file from\n  "
          "${write_failures}")
endif()
message(STATUS "cli_exit_codes: every usage error exits 2, every failed "
               "write exits 1")
