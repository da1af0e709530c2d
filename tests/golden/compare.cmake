# Golden-table check: runs one bench and compares its stdout byte for byte
# with a checked-in table. Registered once per table by CMakeLists.txt:
#
#   cmake -DBIN=<bench> "-DARGS=<flags>" -DGOLDEN=<tests/golden/x.txt>
#         -DACTUAL=<build/golden-actual/x.txt> -P compare.cmake
#
# On a mismatch the actual output lands in ACTUAL and the exact re-bless
# command is printed. A re-bless needs a CHANGES.md line naming the table
# and the cause of the change.
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "golden mismatch: `${BIN} ${ARGS}` no longer prints ${GOLDEN}\n"
    "actual output: ${ACTUAL}\n"
    "if the change is intended, re-bless with\n"
    "  cp ${ACTUAL} ${GOLDEN}\n"
    "and add a CHANGES.md line naming the table and the cause.")
endif()
