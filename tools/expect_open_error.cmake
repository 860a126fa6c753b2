# Runs TOOL with ARGS (one space-separated string) and fails unless it
# exits 1 with an error about opening its input and no usage text: the
# arguments parsed, and the named file does not exist.
#
#   cmake -DTOOL=<path> "-DARGS=detect --json m.udsnap s.csv" \
#     -P expect_open_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "1" OR err MATCHES "usage" OR NOT err MATCHES "no_such_input")
  message(FATAL_ERROR
    "expected an open error and exit 1 from ${TOOL} ${ARGS}; got exit ${code}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
