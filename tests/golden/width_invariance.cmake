# Sweep-width invariance check (ctest fixture): the determinism contract for
# speculative bisection, overlapped sweeps and fanned-out fixed scenarios.
#
# Runs every registered bench through lotus_figs at --threads 1 and
# --threads 7 (three bisection levels per batch at one seed; each bench's
# curves, bisections and fixed scenarios side by side on one pool) and
# asserts:
#   1. the two stdouts are byte-identical,
#   2. the two trial-cache summaries report the same hits, misses and
#      entries — speculative trials never enter the cache, and a trial two
#      overlapping sweeps want is one miss and one hit, as at width 1.
#
# Usage: cmake -DDRIVER=<exe> -DWORK=<scratch-dir> -P width_invariance.cmake
if(NOT DEFINED DRIVER OR NOT DEFINED WORK)
  message(FATAL_ERROR "width_invariance.cmake needs -DDRIVER and -DWORK")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(args --quick --seed 1 --no-store)
set(summary_re "trial cache: [0-9]+ hits, [0-9]+ misses \\([0-9]+ entries\\)")

foreach(threads 1 7)
  execute_process(
    COMMAND ${DRIVER} ${args} --threads ${threads}
    OUTPUT_VARIABLE out_${threads}
    ERROR_VARIABLE err_${threads}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "--threads ${threads} run exited with ${rc}\nstderr:\n${err_${threads}}")
  endif()
  if(NOT err_${threads} MATCHES "${summary_re}")
    message(FATAL_ERROR
      "cache summary line missing at --threads ${threads}:\n${err_${threads}}")
  endif()
  set(summary_${threads} "${CMAKE_MATCH_0}")
endforeach()

if(NOT out_1 STREQUAL out_7)
  file(WRITE ${WORK}/threads1.out "${out_1}")
  file(WRITE ${WORK}/threads7.out "${out_7}")
  message(FATAL_ERROR
    "stdout differs between widths; see ${WORK}/threads1.out vs ${WORK}/threads7.out")
endif()

if(NOT summary_1 STREQUAL summary_7)
  message(FATAL_ERROR
    "cache counters differ between widths:\n"
    "  --threads 1: ${summary_1}\n  --threads 7: ${summary_7}")
endif()
