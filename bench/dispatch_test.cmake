# CTest check of ccsim_bench's dispatcher: runs `ccsim_bench <FIGURE>` and
# checks its exit status and its output together, which CTest's own pass/fail
# properties cannot do.
#
#   cmake -DBENCH=<ccsim_bench> -DFIGURE=<name> -DEXPECT_OK=ON|OFF
#         -DEXPECT=<text the output must contain> -P dispatch_test.cmake
execute_process(COMMAND "${BENCH}" "${FIGURE}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(EXPECT_OK AND NOT rc EQUAL 0)
  message(FATAL_ERROR "ccsim_bench ${FIGURE} exited ${rc}:\n${out}")
elseif(NOT EXPECT_OK AND rc EQUAL 0)
  message(FATAL_ERROR "ccsim_bench ${FIGURE} exited 0:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "ccsim_bench ${FIGURE} did not print '${EXPECT}':\n${out}")
endif()
