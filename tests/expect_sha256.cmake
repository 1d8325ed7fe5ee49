# Run BINARY with the flags in ARGS (separated by '|'), which make it write
# OUTPUT, and require OUTPUT's SHA-256 to be the one PIN (a sha256sum
# file, "<hash>  <name>") records. Used by tests/CMakeLists.txt:
#   cmake -DBINARY=... "-DARGS=--snapshot=out.bin" -DOUTPUT=out.bin
#         -DPIN=tests/data/faultsim_warm_start.sha256 -P expect_sha256.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${OUTPUT}")
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "exit '${code}'; stderr: ${err}")
endif()
file(SHA256 "${OUTPUT}" actual)
file(READ "${PIN}" pin)
string(SUBSTRING "${pin}" 0 64 expected)
file(REMOVE "${OUTPUT}")
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${OUTPUT}: SHA-256 ${actual}, pinned ${expected} (${PIN})")
endif()
