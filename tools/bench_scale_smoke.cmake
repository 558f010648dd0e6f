# Driver for the bench_scale_smoke ctest: bench_scale at reduced scale
# (20k SNPs x 200 patients instead of the paper-scale 1M x 1k), staging
# the packed genotype store into OUT_DIR, sweeping the default budget
# ladder {unlimited, P, P/4, P/16}, and writing a BENCH_scale.json
# datapoint gated by check_scale.py: bitwise-identical result hashes
# across budgets, zero store corruption, frames streamed off the mmap in
# every run, the flat-RSS assertion for constrained budgets, and the
# tightest budget holding >= 0.05x of unlimited throughput. The ratio
# floor is a liveness check here, not a perf gate (precedent:
# check_executor_overlap.py): at smoke scale one pass of tiny-compute
# partitions is bound by frame re-reads and lineage recomputes, so the
# tight-budget ratio sits far below 1x, where the full-scale bench
# amortizes the same work over 25x more compute per byte and is gated at
# check_scale.py's default 0.5x.
# Invoked as:
#   cmake -DBENCH=<bench_scale bin> -DPYTHON=<python3>
#         -DCHECK=<check_scale.py> -DOUT_DIR=<dir> -P bench_scale_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(datapoint "${OUT_DIR}/BENCH_scale.json")
set(store "${OUT_DIR}/bench_scale_smoke.ssg")

# Restage every run: a stale store from an older format version would
# otherwise fail Open (correctly, but confusingly) inside the smoke.
file(REMOVE "${store}")

execute_process(
  COMMAND "${BENCH}" "patients=200" "snps=20000" "sets=50" "partitions=20"
          "iters=4" "batch=4" "threads=2" "store=${store}"
          "datapoint=${datapoint}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "bench_scale failed (exit ${run_result})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK}" "${datapoint}" "--min-ratio=0.05"
  RESULT_VARIABLE check_result
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "scale gate failed (exit ${check_result})")
endif()
