# End-to-end check of the trace_tools CLI, run by ctest as test_trace_tools:
# generate a PLTR trace, convert it to CSV and back, require the two PLTR
# files to be byte-identical, then run stats and a planaria simulation on the
# converted file.
#
#   cmake -DTRACE_TOOLS=<path to trace_tools> -DWORKDIR=<scratch dir>
#         -P trace_tools_roundtrip.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_step)
  execute_process(COMMAND "${TRACE_TOOLS}" ${ARGN}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "trace_tools ${ARGN} exited with ${status}")
  endif()
endfunction()

run_step(gen HoK 20000 x.bin)
run_step(convert x.bin x.csv)
run_step(convert x.csv y.bin)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORKDIR}/x.bin" "${WORKDIR}/y.bin"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "x.bin and y.bin differ after the CSV round trip")
endif()
run_step(stats y.bin)
run_step(sim y.bin planaria)
file(REMOVE_RECURSE "${WORKDIR}")
