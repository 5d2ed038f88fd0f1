# Byte-identity check of the experiments driver, run by ctest as
# test_bench_experiments: bench_experiments must exit 0 serially and on a
# 4-thread pool, then twice more on a 4-thread pool with sweep checkpointing
# into one fresh directory (the first run writes every cell file and mid-cell
# snapshot, the second reloads the cells), and all four runs must print the
# same stdout bytes.
#
#   cmake -DBENCH=<path to bench_experiments> -DWORKDIR=<scratch dir>
#         -P experiments_identity.cmake
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

set(ckpt_dir "${WORKDIR}/experiments_identity_ckpt")
file(REMOVE_RECURSE "${ckpt_dir}")
set(ENV{PLANARIA_CHECKPOINT_DIR} "${ckpt_dir}")
set(ENV{PLANARIA_CHECKPOINT_EVERY} 5000)
run_driver(4 written)
run_driver(4 reloaded)
file(REMOVE_RECURSE "${ckpt_dir}")
if(NOT written STREQUAL serial)
  message(FATAL_ERROR "bench_experiments stdout differs when it checkpoints "
                      "into PLANARIA_CHECKPOINT_DIR")
endif()
if(NOT reloaded STREQUAL serial)
  message(FATAL_ERROR "bench_experiments stdout differs when it reloads "
                      "its cells from PLANARIA_CHECKPOINT_DIR")
endif()
