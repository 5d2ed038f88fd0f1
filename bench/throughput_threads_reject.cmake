# Rejection check of PLANARIA_BENCH_THREADS, run by ctest as
# test_bench_throughput_threads: every malformed thread list must make
# bench_throughput exit non-zero before it runs any sweep, and leave no
# trajectory entry behind.
#
#   cmake -DBENCH=<path to bench_throughput> -DWORKDIR=<scratch dir>
#         -P throughput_threads_reject.cmake
set(ENV{PLANARIA_RECORDS} 1000)
set(trajectory "${WORKDIR}/throughput_threads_reject.json")
set(ENV{PLANARIA_BENCH_TRAJECTORY} "${trajectory}")
file(REMOVE "${trajectory}")

foreach(spec "4x" "abc" "1,,2" "0" "-2")
  set(ENV{PLANARIA_BENCH_THREADS} "${spec}")
  execute_process(COMMAND "${BENCH}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(status EQUAL 0)
    message(FATAL_ERROR "bench_throughput accepted "
                        "PLANARIA_BENCH_THREADS=\"${spec}\"")
  endif()
  if(stdout MATCHES "determinism" OR EXISTS "${trajectory}")
    message(FATAL_ERROR "bench_throughput ran a sweep before rejecting "
                        "PLANARIA_BENCH_THREADS=\"${spec}\"")
  endif()
  if(NOT stderr MATCHES "PLANARIA_BENCH_THREADS")
    message(FATAL_ERROR "bench_throughput rejected \"${spec}\" without naming "
                        "PLANARIA_BENCH_THREADS: ${stderr}")
  endif()
endforeach()
