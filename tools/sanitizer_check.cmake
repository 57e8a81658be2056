# CTest driver for one sanitizer leg: configures a nested build of the repo
# with -DMEMO_SANITIZE=<SANITIZE>, builds the leg's test binaries in
# parallel, and runs each one (with the RUN_ENV assignment, when given) so
# the first sanitizer report fails the leg. Invoked as
#   cmake -DSOURCE_DIR=... -DBINARY_DIR=... -DSANITIZE=address
#         -DTESTS=a_test,b_test [-DRUN_ENV=NAME=VALUE]
#         -P tools/sanitizer_check.cmake
# by the <leg>_check tests that memo_add_sanitizer_check registers in
# tests/CMakeLists.txt. TESTS is comma-separated: a ';' list would split
# into separate arguments on the ctest command line.

foreach(var SOURCE_DIR BINARY_DIR SANITIZE TESTS)
  if(NOT ${var})
    message(FATAL_ERROR "sanitizer_check.cmake needs -D${var}")
  endif()
endforeach()
string(REPLACE "," ";" test_binaries "${TESTS}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DMEMO_SANITIZE=${SANITIZE} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "${SANITIZE} configure failed (${configure_result})")
endif()

# One job per core: compiling the nested tree serially dominated the leg's
# wall time.
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} --parallel ${jobs}
          --target ${test_binaries}
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "${SANITIZE} build failed (${build_result})")
endif()

foreach(test_binary ${test_binaries})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${RUN_ENV}
            ${BINARY_DIR}/tests/${test_binary}
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR
            "${test_binary} failed under ${SANITIZE} (${run_result})")
  endif()
endforeach()
