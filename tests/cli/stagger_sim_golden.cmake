# Runs a fixed set of short stagger_sim --csv configurations and compares
# their stdout byte-for-byte with tests/golden/stagger_sim_cli.csv.
#
#   cmake -DSIM=<stagger_sim> -DGOLDEN=<golden> -DOUT=<actual> \
#         [-DUPDATE=1] -P stagger_sim_golden.cmake
#
# With -DUPDATE=1 the golden is re-recorded instead; review the diff and
# commit it with the change that moved the output.  The two replicated
# runs must also agree on every column except `threads`: replications
# are bit-identical whatever the thread count.

foreach(var SIM GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

set(common "--csv --warmup-hours=0.5 --measure-hours=2")
set(configs
  ""
  "--scheme=staggered --coalesce"
  "--scheme=vdr"
  "--parity --spares=2 --scrub --degraded=reconstruct --chaos-seed=7 --preload=100"
  "--replications=3 --threads=1"
  "--replications=3 --threads=2")

set(actual "")
foreach(cfg IN LISTS configs)
  string(STRIP "${common} ${cfg}" cmdline)
  separate_arguments(args UNIX_COMMAND "${cmdline}")
  execute_process(COMMAND "${SIM}" ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "stagger_sim ${cmdline} exited ${rc}:\n${err}")
  endif()
  string(APPEND actual "# stagger_sim ${cmdline}\n${out}")
  if(cfg MATCHES "--threads=([0-9]+)")
    set(threads "${CMAKE_MATCH_1}")
    # Drop the header line and the `threads` column (5th field).
    string(REGEX REPLACE "^[^\n]*\n" "" row "${out}")
    string(REGEX REPLACE "^(([^,]*,){4})[^,]*" "\\1" row "${row}")
    set(threads_row_${threads} "${row}")
  endif()
endforeach()

if(NOT threads_row_1 STREQUAL threads_row_2)
  message(FATAL_ERROR "--threads=1 and --threads=2 differ outside the "
                      "threads column:\n${threads_row_1}${threads_row_2}")
endif()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "recorded ${GOLDEN}")
  return()
endif()

file(WRITE "${OUT}" "${actual}")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differ)
if(differ)
  file(READ "${GOLDEN}" expected)
  message(FATAL_ERROR "stagger_sim output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
