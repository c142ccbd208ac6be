# Runs a CLI invocation that must be refused as a usage error: exit code 2
# and a one-line message, not an abort with the precondition's source
# location. Invoked by ctest as
#   cmake -DCMD="<exe>;<arg>;..." -DEXPECT="<regex>" -P check_cli_error.cmake
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${code}':\n${all}")
endif()
if(all MATCHES "precondition failed")
  message(FATAL_ERROR "output leaks the precondition text:\n${all}")
endif()
if(NOT all MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${all}")
endif()
