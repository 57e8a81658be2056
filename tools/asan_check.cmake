# CTest driver for the AddressSanitizer pass: configures a nested build of
# the repo with -DMEMO_SANITIZE=address, builds the memory-sensitive test
# binaries (offload backends with their raw pwrite/pread paging, the
# copier-thread obs integration, and the attention kernels' padded-panel
# and stack-tile indexing across multi-block shapes in
# parallel_exactness_test) and runs them. Invoked as
#   cmake -DSOURCE_DIR=... -DBINARY_DIR=... -P tools/asan_check.cmake
# by the `asan_check` test registered in tests/CMakeLists.txt.

if(NOT SOURCE_DIR OR NOT BINARY_DIR)
  message(FATAL_ERROR "asan_check.cmake needs -DSOURCE_DIR and -DBINARY_DIR")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BINARY_DIR}
          -DMEMO_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "asan configure failed (${configure_result})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BINARY_DIR}
          --target offload_backend_test
          obs_integration_test checkpoint_test fault_tolerance_test
          simd_kernels_test tensor_arena_test train_ops_test
          parallel_exactness_test
          plan_cache_test serve_test serve_overload_test serve_soak_test
          trace_fuzz_test
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "asan build failed (${build_result})")
endif()

foreach(test_binary offload_backend_test
        obs_integration_test checkpoint_test fault_tolerance_test
        simd_kernels_test tensor_arena_test train_ops_test
        parallel_exactness_test
          plan_cache_test serve_test serve_overload_test serve_soak_test
          trace_fuzz_test)
  execute_process(
    COMMAND ${BINARY_DIR}/tests/${test_binary}
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "${test_binary} failed under asan (${run_result})")
  endif()
endforeach()
