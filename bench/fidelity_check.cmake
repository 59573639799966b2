# One fidelity check (bench/CMakeLists.txt): runs the bench BENCH with
# SNACC_BENCH_OUT set to a fresh directory OUT and compares the JSON it
# writes with GOLDEN byte for byte. The bench's stdout is kept in OUT.
#   cmake -DBENCH=<binary> -DOUT=<dir> -DGOLDEN=<BENCH_x.json> \
#         -P fidelity_check.cmake
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(ENV{SNACC_BENCH_OUT} ${OUT})
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT}/stdout.txt
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
get_filename_component(name ${GOLDEN} NAME)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN}
                        ${OUT}/${name}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT}/${name} does not match ${GOLDEN}: a simulated "
                      "result moved")
endif()
