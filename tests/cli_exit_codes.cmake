# CLI exit-code check, run as the `cli_exit_codes` ctest: every binary that
# parses flags exits 2 on an unknown flag or a bad flag value, never 0 or
# 1.  The daemon flags and --stats value that were removed along with the
# slow-request log and the Prometheus exposition, and regen's removed
# whole-diagram validation mode, must stay rejected.
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
expect_exit_2("${REGEN}" --validate full)
# A runnable input, so only the --stats value can make net2art fail; it
# would otherwise write its diagram under the ctest working directory.
expect_exit_2("${NET2ART}" --synth grid:4 --stats prom
              -o "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes")

if(failures)
  string(REPLACE ";" "\n  " failures "${failures}")
  message(FATAL_ERROR "cli_exit_codes: expected exit code 2 from\n  ${failures}")
endif()
message(STATUS "cli_exit_codes: every usage error exits 2")
