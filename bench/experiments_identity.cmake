# Byte-identity check of the experiments driver, run by ctest as
# test_bench_experiments: bench_experiments must exit 0 serially and on a
# 4-thread pool, and both runs must print the same stdout bytes.
#
#   cmake -DBENCH=<path to bench_experiments> -P experiments_identity.cmake
set(ENV{PLANARIA_RECORDS} 20000)
unset(ENV{PLANARIA_CHECKPOINT_DIR})
unset(ENV{PLANARIA_CHECKPOINT_EVERY})

function(run_driver threads out_var)
  set(ENV{PLANARIA_THREADS} ${threads})
  execute_process(COMMAND "${BENCH}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout
                  ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_experiments at PLANARIA_THREADS=${threads} "
                        "exited with ${status}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

run_driver(1 serial)
run_driver(4 pooled)
if(NOT serial STREQUAL pooled)
  message(FATAL_ERROR "bench_experiments stdout differs between "
                      "PLANARIA_THREADS=1 and PLANARIA_THREADS=4")
endif()
