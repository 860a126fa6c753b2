# Runs TOOL with ARGS (one space-separated string) and fails unless it
# prints usage text and exits 2, the tools' answer to a malformed flag.
#
#   cmake -DTOOL=<path> "-DARGS=--port -1 health" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2" OR NOT err MATCHES "usage")
  message(FATAL_ERROR
    "expected usage text and exit 2 from ${TOOL} ${ARGS}; got exit ${code}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
