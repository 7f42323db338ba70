# Runs benches (the paper figures, the matcher and fleet artifacts) in fast
# mode into a fresh directory and byte-compares every artifact against the
# committed goldens: each JSON with check_bench_json.py --compare, each CSV with
# `cmake -E compare_files`. Every golden must be reproduced and every written
# artifact must have a golden.
#
#   cmake "-DBENCHES=<binary>;<binary>" -DOUT_DIR=<dir> -DGOLDEN_DIR=<dir> \
#         -DPYTHON=<python3> -DCHECKER=<check_bench_json.py> \
#         -P compare_paper_goldens.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT BENCHES OR NOT OUT_DIR OR NOT GOLDEN_DIR OR NOT PYTHON OR NOT CHECKER)
  message(FATAL_ERROR "usage: cmake -DBENCHES=<binaries> -DOUT_DIR=<dir> -DGOLDEN_DIR=<dir> -DPYTHON=<python3> -DCHECKER=<script> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bench IN LISTS BENCHES)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BARB_BENCH_FAST=1 "BARB_BENCH_OUT=${OUT_DIR}"
            "BARB_BENCH_CSV_DIR=${OUT_DIR}" ${bench} --jobs 4
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT result STREQUAL "0")
    message(FATAL_ERROR "${bench} exited with '${result}'; stderr:\n${err}")
  endif()
endforeach()

file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
set(mismatched "")
foreach(name IN LISTS goldens)
  if(name MATCHES "\\.json$")
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --compare "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
      RESULT_VARIABLE result)
  else()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
      RESULT_VARIABLE result)
  endif()
  if(NOT result STREQUAL "0")
    list(APPEND mismatched "${name}")
  endif()
endforeach()
foreach(name IN LISTS written)
  if(NOT name IN_LIST goldens)
    list(APPEND mismatched "${name} (no golden)")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "artifacts differ from ${GOLDEN_DIR}: ${mismatched}")
endif()
list(LENGTH goldens count)
message(STATUS "${count} artifacts match ${GOLDEN_DIR}")
