# Runs one program and compares its output with a committed expected file.
# Fails on a non-zero exit or on any difference and prints the first
# differing line. stderr (the log lines) is not compared.
#
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file> [-DARGS=<a;b;...>]
#         [-DOUTPUT=<file>] -P check_output.cmake
#
# ARGS are passed to the program. Without OUTPUT its stdout is compared;
# with OUTPUT, the file the program writes there (removed first, so a stale
# copy cannot pass).

cmake_minimum_required(VERSION 3.25)

if(DEFINED OUTPUT)
  file(REMOVE ${OUTPUT})
endif()
execute_process(COMMAND ${EXAMPLE} ${ARGS} OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
if(DEFINED OUTPUT)
  if(NOT EXISTS ${OUTPUT})
    message(FATAL_ERROR "${EXAMPLE} wrote no ${OUTPUT}")
  endif()
  file(READ ${OUTPUT} actual)
endif()
file(READ ${EXPECTED} expected)
if(actual STREQUAL expected)
  return()
endif()

# Walk both outputs line by line up to the first difference.
set(line 1)
while(TRUE)
  foreach(side expected actual)
    string(FIND "${${side}}" "\n" end)
    if("${${side}}" STREQUAL "")
      set(${side}_line "<end of output>")
    elseif(end EQUAL -1)
      set(${side}_line "${${side}} <no final newline>")
      set(${side} "")
    else()
      string(SUBSTRING "${${side}}" 0 ${end} ${side}_line)
      math(EXPR end "${end} + 1")
      string(SUBSTRING "${${side}}" ${end} -1 ${side})
    endif()
  endforeach()
  if(NOT expected_line STREQUAL actual_line)
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR "output differs from ${EXPECTED} at line ${line}\n"
  "  expected: ${expected_line}\n"
  "  actual:   ${actual_line}")
