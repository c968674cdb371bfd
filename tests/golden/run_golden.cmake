# Golden-output regression runner (ctest fixture).
#
# Runs one program as `<exe> ARGS` and byte-compares its stdout against the
# checked-in golden file, so any numeric drift in the reproduced attack
# curves fails tier-1. ARGS is a ;-list that defaults to the bench form
# `--quick;--seed;1;--no-store` (--no-store keeps the run hermetic: no
# .lotus-cache side effects in the build tree); pass -DARGS= for a program
# that takes no arguments, such as the examples. stderr (cache stats) is not
# part of the contract and is ignored.
#
# Usage: cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<dump> [-DARGS=<list>]
#              -P run_golden.cmake
# Regenerate a golden after an *intentional* change with:
#   ./build/bench/<name> --quick --seed 1 --no-store > tests/golden/<name>.golden
#   ./build/examples/<name> > tests/golden/examples/<name>.golden
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL)
  message(FATAL_ERROR "run_golden.cmake needs -DBENCH, -DGOLDEN, -DACTUAL")
endif()
if(NOT DEFINED ARGS)
  set(ARGS --quick --seed 1 --no-store)
endif()

execute_process(
  COMMAND ${BENCH} ${ARGS}
  OUTPUT_VARIABLE actual_output
  ERROR_VARIABLE bench_stderr
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}\nstderr:\n${bench_stderr}")
endif()

file(READ ${GOLDEN} expected_output)
if(actual_output STREQUAL expected_output)
  return()
endif()

file(WRITE ${ACTUAL} "${actual_output}")
string(REPLACE ";" " " args_text "${ARGS}")
find_program(DIFF_TOOL diff)
set(diff_text "")
if(DIFF_TOOL)
  execute_process(
    COMMAND ${DIFF_TOOL} -u ${GOLDEN} ${ACTUAL}
    OUTPUT_VARIABLE diff_text)
endif()
message(FATAL_ERROR
  "stdout drifted from the golden output.\n"
  "  golden: ${GOLDEN}\n"
  "  actual: ${ACTUAL}\n"
  "If the change is intentional, regenerate with:\n"
  "  ${BENCH} ${args_text} > ${GOLDEN}\n"
  "${diff_text}")
