# Run BINARY with the flags in ARGS (separated by '|') and require exit
# code EXPECT_EXIT with EXPECT_TEXT on stderr. Used by the CLI tests in
# tests/CMakeLists.txt:
#   cmake -DBINARY=... -DARGS="--matrix|--seeds=2x" -DEXPECT_EXIT=2
#         -DEXPECT_TEXT=--seeds -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit '${code}', expected ${EXPECT_EXIT}; stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_TEXT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT_TEXT}': ${err}")
endif()
