# Runs stagger_sim once per argument string in RUNS ('|'-separated) and
# requires each run to exit 2 with stderr matching the regex EXPECT, in
# which @FLAG@ stands for the run's first flag (its text up to '=').
#
#   cmake -DSIM=<stagger_sim> "-DRUNS=--stations=abc|--disks=" \
#         "-DEXPECT=invalid value '[^']*' for @FLAG@" \
#         -P stagger_sim_reject.cmake

foreach(var SIM RUNS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

string(REPLACE "|" ";" runs "${RUNS}")
foreach(run IN LISTS runs)
  separate_arguments(args UNIX_COMMAND "${run}")
  list(GET args 0 flag)
  string(REGEX REPLACE "=.*" "" flag "${flag}")
  string(REPLACE "@FLAG@" "${flag}" expect "${EXPECT}")
  execute_process(COMMAND "${SIM}" ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "stagger_sim ${run}: exit ${rc}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expect}")
    message(FATAL_ERROR "stagger_sim ${run}: stderr does not match "
                        "'${expect}':\n${err}")
  endif()
endforeach()
