# lotus_store verify fixture (ctest): the CI "verify the cache artifact"
# contract, including the sidecar indexes.
#
# Builds a real store by running the lotus_figs driver once, then asserts:
#   1. `lotus_store verify` passes on the intact store (exit 0, counts the
#      indexed shards),
#   2. corrupting a sidecar index file makes verify FAIL (non-zero exit)
#      with a CORRUPT-INDEX diagnostic — a lying index must never pass the
#      gate an artifact upload depends on,
#   3. deleting the corrupt index makes verify pass again with a "no
#      sidecar index" note (the documented repair path: readers scan the
#      shard until the next append rebuilds the index).
#
# Usage: cmake -DDRIVER=<lotus_figs> -DTOOL=<lotus_store> -DWORK=<scratch>
#          -P store_verify.cmake
if(NOT DEFINED DRIVER OR NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "store_verify.cmake needs -DDRIVER, -DTOOL, -DWORK")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(cache ${WORK}/cache)

execute_process(
  COMMAND ${DRIVER} --quick --only fig1_attacks --cache-dir ${cache}
  OUTPUT_QUIET
  ERROR_VARIABLE driver_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "driver run exited with ${rc}\nstderr:\n${driver_err}")
endif()

execute_process(
  COMMAND ${TOOL} verify --cache-dir ${cache}
  OUTPUT_VARIABLE verify_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "verify failed on an intact store:\n${verify_out}")
endif()
if(NOT verify_out MATCHES "indexed")
  message(FATAL_ERROR
    "verify did not report indexed shards on a freshly flushed store:\n"
    "${verify_out}")
endif()

# Clobber one sidecar index with garbage. The shard itself stays valid —
# only the index lies now — and verify must still fail.
file(GLOB index_files ${cache}/shard-*.idx)
list(LENGTH index_files index_count)
if(index_count EQUAL 0)
  message(FATAL_ERROR "driver flush wrote no sidecar index files in ${cache}")
endif()
list(GET index_files 0 victim)
file(WRITE ${victim} "not-an-index")

execute_process(
  COMMAND ${TOOL} verify --cache-dir ${cache}
  OUTPUT_VARIABLE verify_out
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR
    "verify exited 0 with a corrupted index (${victim}):\n${verify_out}")
endif()
if(NOT verify_out MATCHES "CORRUPT-INDEX")
  message(FATAL_ERROR
    "verify failed without naming the corrupt index:\n${verify_out}")
endif()

# Deleting the lying index is the repair; verify must pass again and note
# the shard that now has no index.
file(REMOVE ${victim})
execute_process(
  COMMAND ${TOOL} verify --cache-dir ${cache}
  OUTPUT_VARIABLE verify_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "verify still failing after the corrupt index was deleted:\n${verify_out}")
endif()
if(NOT verify_out MATCHES "no sidecar index")
  message(FATAL_ERROR
    "verify did not note the shard left without an index:\n${verify_out}")
endif()
