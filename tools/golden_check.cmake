# CTest script for one golden-output check: runs a command and fails unless
# it exits 0 and its stdout equals a committed file byte for byte, printing
# the first line that differs. Invoked as
#   cmake -DCOMMAND=<executable> [-DARGS=a,b,...] -DGOLDEN=<file>
#         -P tools/golden_check.cmake
# by the golden_* tests that memo_add_golden_check registers in
# tests/CMakeLists.txt. ARGS is comma-separated: a ';' list would split into
# separate arguments on the ctest command line. To re-record a file after a
# change that is meant to move the output, run the command and redirect its
# stdout over the file.

cmake_minimum_required(VERSION 3.16)

foreach(var COMMAND GOLDEN)
  if(NOT ${var})
    message(FATAL_ERROR "golden_check.cmake needs -D${var}")
  endif()
endforeach()
string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," " " shown "${COMMAND} ${ARGS}")

execute_process(
  COMMAND ${COMMAND} ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${shown} exited with ${result}")
endif()
file(READ ${GOLDEN} expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both outputs line by line to the first difference.
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT expected_line STREQUAL actual_line OR expected_end EQUAL -1 OR
     actual_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
if(expected_line STREQUAL actual_line)
  set(actual_line "${actual_line}  (one output ends after this line)")
endif()
message(FATAL_ERROR
        "stdout of ${shown} differs from ${GOLDEN} at line "
        "${line}:\n  expected: ${expected_line}\n  actual:   ${actual_line}")
