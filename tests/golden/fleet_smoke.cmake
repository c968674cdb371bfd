# Fleet equivalence check (ctest fixture): the acceptance contract for the
# sweep fleet.
#
# Runs the same quick sweep twice — once in one lotus_figs process, once as
# a 4-worker lotus_fleet run through the crash-safe work queue — against two
# fresh stores, and asserts:
#   1. both stores pass `lotus_store verify`,
#   2. `lotus_store stats` reports the same record count for every shard of
#      the two stores and 0 duplicates in either — the fleet's interleaved,
#      deduped appends committed each single-process record exactly once
#      (fleet_test's FleetCrash case compares the record sets themselves);
#   3. a warm lotus_figs rerun over the FLEET's store reports 0 misses and
#      produces stdout byte-identical to the single-process run.
#
# Usage: cmake -DDRIVER=<lotus_figs> -DFLEET=<lotus_fleet> -DTOOL=<lotus_store>
#              -DWORK=<scratch-dir> -P fleet_smoke.cmake
if(NOT DEFINED DRIVER OR NOT DEFINED FLEET OR NOT DEFINED TOOL
   OR NOT DEFINED WORK)
  message(FATAL_ERROR
    "fleet_smoke.cmake needs -DDRIVER, -DFLEET, -DTOOL, and -DWORK")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(benches fig1_attacks,fig3_obedient,token_rare)
set(shape --quick --only ${benches})

execute_process(
  COMMAND ${DRIVER} ${shape} --cache-dir ${WORK}/single
  OUTPUT_VARIABLE single_out ERROR_VARIABLE single_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "single-process run exited ${rc}\nstderr:\n${single_err}")
endif()

execute_process(
  COMMAND ${FLEET} run ${shape} --cache-dir ${WORK}/fleet --workers 4
  OUTPUT_VARIABLE fleet_out ERROR_VARIABLE fleet_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run exited ${rc}\nstderr:\n${fleet_err}")
endif()
if(NOT fleet_err MATCHES "units done")
  message(FATAL_ERROR "fleet summary line missing:\n${fleet_err}")
endif()

foreach(dir single fleet)
  execute_process(
    COMMAND ${TOOL} verify --cache-dir ${WORK}/${dir}
    OUTPUT_VARIABLE verify_out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${dir} store failed verify:\n${verify_out}")
  endif()
  execute_process(
    COMMAND ${TOOL} stats --cache-dir ${WORK}/${dir}
    OUTPUT_VARIABLE stats_out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${dir} store failed stats:\n${stats_out}")
  endif()
  if(NOT stats_out MATCHES "total: [0-9]+ records, [0-9]+ bytes, 0 duplicates")
    message(FATAL_ERROR "${dir} store holds duplicate records:\n${stats_out}")
  endif()
  string(REGEX MATCHALL "shard [0-9]+: [0-9]+ records" ${dir}_counts
    "${stats_out}")
endforeach()
if(NOT single_counts STREQUAL fleet_counts)
  message(FATAL_ERROR
    "per-shard record counts differ between single-process and fleet runs:\n"
    "single: ${single_counts}\nfleet:  ${fleet_counts}")
endif()

# Warm rerun over the fleet's store: every trial served from disk, stdout
# byte-identical to the single-process run.
execute_process(
  COMMAND ${DRIVER} ${shape} --cache-dir ${WORK}/fleet
  OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm run exited ${rc}\nstderr:\n${warm_err}")
endif()
if(NOT warm_out STREQUAL single_out)
  file(WRITE ${WORK}/single.out "${single_out}")
  file(WRITE ${WORK}/warm.out "${warm_out}")
  message(FATAL_ERROR
    "warm-over-fleet stdout differs from single-process stdout; see "
    "${WORK}/single.out vs ${WORK}/warm.out")
endif()
if(NOT warm_err MATCHES " 0 misses")
  message(FATAL_ERROR
    "warm run over the fleet store re-ran trials:\n${warm_err}")
endif()
