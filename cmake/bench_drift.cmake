# Drift gate for a tracked bench JSON: run the bench in full mode (no
# CLIO_BENCH_SMOKE, default seed), write its JSON into the build tree,
# and fail unless it byte-matches the repo-root copy. The benches write
# only simulated quantities to these files, so any difference means the
# simulated history moved.
#
# Usage: cmake -DBENCH_BINARY=... -DTRACKED_JSON=... -DOUT_JSON=...
#              -P bench_drift.cmake

if(NOT BENCH_BINARY OR NOT TRACKED_JSON OR NOT OUT_JSON)
  message(FATAL_ERROR
    "bench_drift.cmake needs -DBENCH_BINARY, -DTRACKED_JSON and -DOUT_JSON")
endif()

file(REMOVE "${OUT_JSON}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    --unset=CLIO_BENCH_SMOKE
    --unset=CLIO_SEED
    CLIO_BENCH_JSON_OUT=${OUT_JSON}
    ${BENCH_BINARY}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BINARY} exited with ${rc}\n${out}\n${err}")
endif()
if(NOT EXISTS "${OUT_JSON}")
  message(FATAL_ERROR "${BENCH_BINARY} wrote no JSON to ${OUT_JSON}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${TRACKED_JSON}" "${OUT_JSON}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  get_filename_component(tracked_name "${TRACKED_JSON}" NAME)
  get_filename_component(bench_name "${BENCH_BINARY}" NAME)
  message(FATAL_ERROR
    "${tracked_name} drifted: a full run of ${bench_name} wrote "
    "${OUT_JSON}, which differs from the tracked ${TRACKED_JSON}. "
    "If the change is intended, regenerate the tracked file with a full "
    "run from the repo root (e.g. build/bench/${bench_name}) and explain "
    "in CHANGES.md which simulated numbers moved and why.")
endif()
message(STATUS "no drift: ${OUT_JSON} matches ${TRACKED_JSON}")
