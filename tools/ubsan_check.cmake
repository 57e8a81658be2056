# CTest script for the UndefinedBehaviorSanitizer pass: configures a nested
# build of the repo with -DMEMO_SANITIZE=undefined,float-cast-overflow (GCC
# leaves float-cast-overflow out of `undefined`, and an out-of-range
# double->int cast is what an unchecked request field turns into), builds
# the request-reading and file-format test binaries, and runs them with
# halt_on_error so the first report fails the leg. memo_cli_test drives the
# sanitized memo_cli binary. Invoked as
#   cmake -DSOURCE_DIR=... -DBINARY_DIR=... -P tools/ubsan_check.cmake
# by the `ubsan_check` test registered in tests/CMakeLists.txt.

if(NOT SOURCE_DIR OR NOT BINARY_DIR)
  message(FATAL_ERROR "ubsan_check.cmake needs -DSOURCE_DIR and -DBINARY_DIR")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DMEMO_SANITIZE=undefined,float-cast-overflow
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "ubsan configure failed (${configure_result})")
endif()

set(test_binaries serve_test plan_cache_test checkpoint_test
    fault_tolerance_test memo_cli_test)

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR} --target ${test_binaries}
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "ubsan build failed (${build_result})")
endif()

foreach(test_binary ${test_binaries})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
            ${BINARY_DIR}/tests/${test_binary}
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "${test_binary} failed under ubsan (${run_result})")
  endif()
endforeach()
