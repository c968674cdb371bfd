# Warm/cold driver check (ctest fixture): the acceptance contract for the
# on-disk trial store.
#
# Runs lotus_figs twice against one fresh --cache-dir and asserts:
#   1. the two stdouts are byte-identical (warm values replay exactly),
#   2. the warm run's cache summary reports 0 misses and >0 disk hits —
#      i.e. it ran zero gossip trials for grid points already in the store.
#
# Usage: cmake -DDRIVER=<exe> -DWORK=<scratch-dir> -P warm_cold.cmake
if(NOT DEFINED DRIVER OR NOT DEFINED WORK)
  message(FATAL_ERROR "warm_cold.cmake needs -DDRIVER and -DWORK")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Only the sweep figures exercise the store; keep the fixture fast. The width
# is pinned at 4 so the bisections (churn_attack's too) take the speculative
# path on any runner, cold and warm.
set(args --quick --threads 4 --only fig1_attacks,fig3_obedient,churn_attack
    --cache-dir ${WORK}/cache)

foreach(run cold warm)
  execute_process(
    COMMAND ${DRIVER} ${args}
    OUTPUT_VARIABLE ${run}_out
    ERROR_VARIABLE ${run}_err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} run exited with ${rc}\nstderr:\n${${run}_err}")
  endif()
endforeach()

if(NOT cold_out STREQUAL warm_out)
  file(WRITE ${WORK}/cold.out "${cold_out}")
  file(WRITE ${WORK}/warm.out "${warm_out}")
  message(FATAL_ERROR
    "warm stdout differs from cold stdout; see ${WORK}/cold.out vs ${WORK}/warm.out")
endif()

if(NOT warm_err MATCHES "from disk")
  message(FATAL_ERROR "cache summary line missing from stderr:\n${warm_err}")
endif()
if(NOT warm_err MATCHES " 0 misses")
  message(FATAL_ERROR
    "warm run re-ran trials (expected ' 0 misses'):\n${warm_err}")
endif()
if(warm_err MATCHES "\\(0 from disk\\)")
  message(FATAL_ERROR
    "warm run served no trials from the on-disk store:\n${warm_err}")
endif()
