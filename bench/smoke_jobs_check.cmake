# Runs one sweep bench's --smoke grid single-threaded and with two workers
# and fails unless both runs exit 0 with byte-identical stdout (the sweep
# engine's determinism guarantee). Usage:
#   cmake -DBENCH=<bench executable> -P smoke_jobs_check.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench executable>")
endif()

foreach(jobs 1 2)
  execute_process(COMMAND "${BENCH}" --smoke --jobs ${jobs}
                  OUTPUT_VARIABLE out_${jobs}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --smoke --jobs ${jobs} exited with ${rc}")
  endif()
endforeach()

if(NOT out_1 STREQUAL out_2)
  message(FATAL_ERROR
          "${BENCH} --smoke: stdout differs between --jobs 1 and --jobs 2\n"
          "--- jobs 1 ---\n${out_1}\n--- jobs 2 ---\n${out_2}")
endif()
