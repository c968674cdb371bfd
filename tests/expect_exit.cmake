# Exit-status check (ctest fixture): runs one command and requires an exact
# exit code and a stderr matching a pattern. Used for the configurations the
# benches must reject cleanly (usage exit code 2 and one line of
# explanation) instead of aborting mid-run.
#
# Usage: cmake "-DCOMMAND=<exe>;<arg>;..." -DEXPECT_RC=<code>
#              -DEXPECT_STDERR=<regex> -P expect_exit.cmake
if(NOT DEFINED COMMAND OR NOT DEFINED EXPECT_RC OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR
    "expect_exit.cmake needs -DCOMMAND, -DEXPECT_RC and -DEXPECT_STDERR")
endif()

execute_process(
  COMMAND ${COMMAND}
  OUTPUT_QUIET
  ERROR_VARIABLE actual_stderr
  RESULT_VARIABLE actual_rc)
if(NOT actual_rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR
    "expected exit ${EXPECT_RC}, got '${actual_rc}'\nstderr:\n${actual_stderr}")
endif()
if(NOT actual_stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "stderr does not match '${EXPECT_STDERR}':\n${actual_stderr}")
endif()
