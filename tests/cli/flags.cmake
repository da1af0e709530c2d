# Command-line flag checks, registered by CMakeLists.txt.
#
#   cmake -DBIN=<bench> "-DARGS=<flags>" -DEXPECT_EXIT=<code> -P flags.cmake
#     runs the bench and requires exactly that exit code;
#   cmake -DBIN=<bench> "-DARGS=<flags>" -P flags.cmake
#     reads `<bench> <flags> --help`, then passes every flag the usage lists,
#     one at a time with a sample value and a trailing --help: each must be
#     accepted (exit 0). A flag with no sample below fails the check, so a
#     new flag gets one here.
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")

function(run_bench out_rc out_text)
  execute_process(COMMAND "${BIN}" ${args} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  set(${out_rc} "${rc}" PARENT_SCOPE)
  set(${out_text} "${out}${err}" PARENT_SCOPE)
endfunction()

if(DEFINED EXPECT_EXIT)
  run_bench(rc text)
  if(NOT rc STREQUAL EXPECT_EXIT)
    message(FATAL_ERROR
      "`${BIN} ${ARGS}` exited with ${rc}, want ${EXPECT_EXIT}:\n${text}")
  endif()
  return()
endif()

set(samples
  --sizes=10 --seeds=1 --keys=1 --queries=1 --seed=1 --json=unused.json
  --overlay=baton --threads=1 --latency=uniform:1,3 --key-dist=zipf:0.9
  --load=0.5 --arrivals=fixed --service-ticks=2 --max-queue=4
  --timeout-ticks=9 --stragglers=1:2 --drop=0.1 --dup=0.1 --retries=1
  --cache=8,1 --trace=unused.json --metrics=unused.json --figure=8d
  --phases=build)

run_bench(rc usage --help)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "`${BIN} ${ARGS} --help` exited with ${rc}:\n${usage}")
endif()
string(REGEX MATCHALL "\n  --[a-z_-]+=?" flags "${usage}")
if(NOT flags)
  message(FATAL_ERROR "no flags in the usage of ${BIN}:\n${usage}")
endif()
foreach(flag IN LISTS flags)
  string(STRIP "${flag}" flag)
  set(arg "${flag}")
  if(flag MATCHES "=$")
    set(arg "")
    foreach(sample IN LISTS samples)
      string(FIND "${sample}" "${flag}" at)
      if(at EQUAL 0)
        set(arg "${sample}")
      endif()
    endforeach()
    if(arg STREQUAL "")
      message(FATAL_ERROR "no sample value for ${flag}: add one to ${CMAKE_CURRENT_LIST_FILE}")
    endif()
  endif()
  run_bench(rc text ${arg} --help)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${BIN} documents ${flag} but `${BIN} ${ARGS} ${arg} --help` exited with ${rc}:\n${text}")
  endif()
endforeach()
list(LENGTH flags count)
message(STATUS "${BIN}: all ${count} documented flags accepted")
