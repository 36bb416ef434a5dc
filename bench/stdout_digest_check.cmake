# Runs one bench at its default arguments and fails unless it exits 0 and
# the SHA-256 of its stdout equals the bench's line in the digest file.
# Usage:
#   cmake -DBENCH=<bench executable> -DNAME=<bench name>
#         -DDIGESTS=<stdout_digests.txt> -DOUT=<stdout copy>
#         -P stdout_digest_check.cmake
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH NAME DIGESTS OUT)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(STRINGS "${DIGESTS}" lines REGEX "^[0-9a-f]+  ${NAME}$")
list(LENGTH lines n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "${DIGESTS} has ${n} lines for ${NAME}, expected 1")
endif()
string(REGEX REPLACE "  .*$" "" expected "${lines}")

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(SHA256 "${OUT}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${NAME}: stdout digest ${actual} differs from ${expected} in "
          "${DIGESTS}; the figure moved (stdout kept in ${OUT})")
endif()
