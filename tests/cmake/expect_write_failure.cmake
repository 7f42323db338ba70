# Runs each bench binary in fast mode with BARB_BENCH_OUT and
# BARB_BENCH_CSV_DIR pointing at a directory that does not exist, and passes
# only if every bench reports the failed write and exits with status 1.
#
#   cmake "-DBENCHES=<binary>;<binary>" -DOUT_DIR=<missing dir> \
#         -P expect_write_failure.cmake
if(NOT BENCHES OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCHES=<binaries> -DOUT_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(EXISTS "${OUT_DIR}")
  message(FATAL_ERROR "${OUT_DIR} exists; the check needs an unwritable path")
endif()
foreach(bench IN LISTS BENCHES)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BARB_BENCH_FAST=1 "BARB_BENCH_OUT=${OUT_DIR}"
            "BARB_BENCH_CSV_DIR=${OUT_DIR}" ${bench}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT result STREQUAL "1")
    message(FATAL_ERROR "${bench} exited with '${result}', want 1; stderr:\n${err}")
  endif()
  if(NOT err MATCHES "cannot write")
    message(FATAL_ERROR "${bench} did not report the failed write; stderr:\n${err}")
  endif()
endforeach()
