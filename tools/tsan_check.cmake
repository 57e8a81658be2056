# CTest driver for the ThreadSanitizer pass: configures a nested build of
# the repo with -DMEMO_SANITIZE=thread, builds the concurrency-sensitive
# test binaries (thread pool, executor paths, the multi-threaded trace
# recorder) and runs them. Invoked as
#   cmake -DSOURCE_DIR=... -DBINARY_DIR=... -P tools/tsan_check.cmake
# by the `tsan_check` test registered in tests/CMakeLists.txt.

if(NOT SOURCE_DIR OR NOT BINARY_DIR)
  message(FATAL_ERROR "tsan_check.cmake needs -DSOURCE_DIR and -DBINARY_DIR")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DMEMO_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "tsan configure failed (${configure_result})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR}
          --target thread_pool_test parallel_exactness_test executor_test
          trace_recorder_test fault_tolerance_test tensor_arena_test
          simd_kernels_test train_ops_test plan_cache_test serve_test
          serve_overload_test serve_soak_test trace_fuzz_test
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "tsan build failed (${build_result})")
endif()

foreach(test_binary thread_pool_test parallel_exactness_test executor_test
        trace_recorder_test fault_tolerance_test tensor_arena_test
        simd_kernels_test train_ops_test plan_cache_test serve_test
        serve_overload_test serve_soak_test trace_fuzz_test)
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${test_binary}
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "${test_binary} failed under tsan (${run_result})")
  endif()
endforeach()
